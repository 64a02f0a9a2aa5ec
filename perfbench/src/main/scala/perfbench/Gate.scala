package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle
import repro.providers.ProviderContext
import repro.search.{Query, QueryParser}
import repro.spec.{HumboldtSpec, Surface}

/** One claim to check against DuckDB: the rows the program produced, as
  * strings, and the SQL that must return exactly the same rows.
  */
final case class Check(key: String, rows: Seq[String], sql: String)

/** Correctness gate. Each distinct result a run produced is checked once,
  * after the timed phase, against DuckDB through `repro.Oracle`. The SQL is
  * written here, independently of the compiler and the providers, over the
  * catalog's own tables; only a query's parse tree comes from the program.
  * All checks of a run go through one Oracle call; only if that call fails
  * is each check repeated alone to find the failing ones.
  */
final class Gate(spark: SparkSession, ctx: ProviderContext, searchOnly: Boolean,
                 dir: java.nio.file.Path) {
  import spark.implicits._

  private val checks = mutable.LinkedHashMap.empty[String, Check]

  def add(c: Check): Unit = if (!checks.contains(c.key)) checks(c.key) = c

  def size: Int = checks.size

  /** The tables the SQL reads. Spark writes them to parquet once per run
    * and DuckDB reads the files directly: handing them to `Oracle` row by
    * row would take longer than the timed phase at SF 1.0.
    */
  private lazy val tables: Seq[(String, String)] = {
    val cat = ctx.catalog
    val all = Seq(
      "artifacts" -> cat.artifacts.select("artifact_id", "name", "artifact_type", "owner_id",
        "team_id", "description"),
      "users" -> cat.users,
      "badges" -> cat.badges.select("artifact_id", "badge", "badged_by"),
    ) ++ (if (searchOnly) Nil else Seq(
      "teams" -> cat.teams,
      "lineage" -> cat.lineage,
      "edges" -> ctx.joinEdges.get.select("src_table", "dst_table"),
      "usage" -> cat.usage.select("artifact_id", "user_id")))
    all.map { case (name, df) =>
      val path = dir.resolve(name).toString
      df.coalesce(1).write.mode("overwrite").parquet(path)
      name -> s"SELECT * FROM read_parquet('$path/*.parquet')"
    }
  }

  private def assertAll(cs: Seq[Check]): Unit = {
    val got = cs.flatMap(c => c.rows.map(r => (c.key, r))).toDF("qid", "v")
    val defs = tables.map { case (name, sql) => s"$name AS ($sql)" }.mkString("WITH ", ",\n", "\n")
    val sql = cs.map(c => s"SELECT ${Gate.lit(c.key)} AS qid, CAST(v AS VARCHAR) AS v FROM (${c.sql}) q\n")
      .mkString(defs, "UNION ALL ", "")
    Oracle.assertEquivalent(got, sql)
  }

  /** Keys of the checks that fail; empty when all pass. */
  def failures(): Set[String] = {
    val all = checks.values.toSeq
    try {
      if (all.isEmpty) Set.empty
      else try { assertAll(all); Set.empty }
      catch {
        case NonFatal(_) =>
          all.filter(c => try { assertAll(Seq(c)); false } catch { case NonFatal(_) => true })
            .map(_.key).toSet
      }
    } finally deleteTree(dir)
  }

  private def deleteTree(p: java.nio.file.Path): Unit = if (java.nio.file.Files.exists(p)) {
    val s = java.nio.file.Files.walk(p)
    try s.sorted(java.util.Comparator.reverseOrder()).forEach(java.nio.file.Files.delete(_))
    finally s.close()
  }
}

object Gate {
  def lit(s: String): String = "'" + s.replace("'", "''") + "'"

  /** SQL predicate over artifact alias `a` for one provider call. */
  def endpointPred(endpoint: String, in: Map[String, String]): String = endpoint match {
    case "recents" | "frequent" | "embedding" => "TRUE"
    case "owned_by" =>
      s"EXISTS (SELECT 1 FROM users u WHERE u.user_id = a.owner_id AND u.user_name = ${lit(in("user"))})"
    case "badged" | "badged_by" =>
      val conds = Seq("b.artifact_id = a.artifact_id") ++
        in.get("badge").map(v => s"b.badge = ${lit(v)}") ++
        in.get("user").map(v => s"m.user_name = ${lit(v)}")
      s"EXISTS (SELECT 1 FROM badges b LEFT JOIN users m ON b.badged_by = m.user_id " +
        s"WHERE ${conds.mkString(" AND ")})"
    case "of_type" => in.get("artifact_type").fold("TRUE")(t => s"a.artifact_type = ${lit(t)}")
    case "text_match" =>
      val q = lit(in("q").toLowerCase)
      s"(contains(lower(a.name), $q) OR contains(lower(a.description), $q))"
    case "team_docs" =>
      s"a.team_id IN (SELECT t.team_id FROM teams t WHERE t.team_name = ${lit(in("team"))})"
    case "team_frequent" =>
      s"a.artifact_id IN (SELECT g.artifact_id FROM usage g JOIN users m ON g.user_id = m.user_id " +
        s"JOIN teams t ON m.team_id = t.team_id WHERE t.team_name = ${lit(in("team"))})"
    case "lineage_children" =>
      s"CAST(a.artifact_id AS BIGINT) IN (WITH RECURSIVE r(id, d) AS (" +
        s"SELECT CAST(${lit(in("artifact"))} AS BIGINT), 0 UNION ALL " +
        "SELECT CAST(l.child_id AS BIGINT), r.d + 1 FROM lineage l " +
        "JOIN r ON CAST(l.parent_id AS BIGINT) = r.id WHERE r.d < 8) SELECT id FROM r)"
    case "joinable" =>
      val t = lit(in("table").toLowerCase)
      val incident = "FROM edges e JOIN artifacts s ON upper(s.name) = upper(e.src_table) " +
        "JOIN artifacts d ON upper(d.name) = upper(e.dst_table) " +
        s"WHERE lower(e.src_table) = $t OR lower(e.dst_table) = $t"
      s"a.artifact_id IN (SELECT s.artifact_id $incident UNION SELECT d.artifact_id $incident)"
    case other => throw new IllegalArgumentException(s"no oracle template for endpoint '$other'")
  }

  /** SQL predicate for a parsed query under a spec: `&`, `|` and `!` are
    * set intersection, union and complement over the artifacts.
    */
  def queryPred(q: Query, spec: HumboldtSpec): String = {
    val searchable = spec.providersOn(Surface.Search)
    q match {
      case Query.Text(w) => endpointPred("text_match", Map("q" -> w))
      case Query.FieldPred(k, v) =>
        val p = searchable.find(_.searchKey.exists(_.equalsIgnoreCase(k))).get
        endpointPred(p.endpoint, Map(p.inputs.head.name -> v))
      case Query.ProviderCall(n, args) =>
        val p = searchable.find(sp => QueryParser.normalize(sp.name) == n).get
        endpointPred(p.endpoint, p.inputs.map(_.name).zip(args).toMap)
      case Query.And(l, r) => s"(${queryPred(l, spec)} AND ${queryPred(r, spec)})"
      case Query.Or(l, r)  => s"(${queryPred(l, spec)} OR ${queryPred(r, spec)})"
      case Query.Not(i)    => s"(NOT ${queryPred(i, spec)})"
    }
  }

  /** The artifact ids a search returns, as SQL. */
  def searchSql(text: String, spec: HumboldtSpec, scopePred: Option[String]): String = {
    val q = QueryParser.fromSpec(spec).parse(text)
      .fold(e => throw new IllegalArgumentException(e), identity)
    s"SELECT a.artifact_id AS v FROM artifacts a WHERE ${queryPred(q, spec)}" +
      scopePred.fold("")(s => s" AND $s")
  }

  /** A rendered first page lies within the tab's set: the page's ids
    * that are in the set must come back, and with `pageSize` also the page
    * size the set allows.
    */
  def pageSql(setPred: String, pageIds: Seq[Long], pageSize: Option[Int]): String = {
    val in = if (pageIds.isEmpty) "FALSE"
             else s"CAST(a.artifact_id AS BIGINT) IN (${pageIds.distinct.mkString(", ")})"
    s"SELECT a.artifact_id AS v FROM artifacts a WHERE $setPred AND $in" + pageSize.fold("")(n =>
      s" UNION ALL SELECT 'size=' || CAST(LEAST($n, count(*)) AS VARCHAR) FROM artifacts a WHERE $setPred")
  }

  /** Category rollup of a categories view: members per category. */
  def rollupSql(endpoint: String, in: Map[String, String]): String = endpoint match {
    case "badged" =>
      val conds = in.get("badge").map(v => s" AND b.badge = ${lit(v)}").getOrElse("") +
        in.get("user").map(v => s" AND m.user_name = ${lit(v)}").getOrElse("")
      "SELECT b.badge || '=' || CAST(count(DISTINCT a.artifact_id) AS VARCHAR) AS v " +
        "FROM artifacts a JOIN badges b ON b.artifact_id = a.artifact_id " +
        s"LEFT JOIN users m ON b.badged_by = m.user_id WHERE TRUE$conds GROUP BY b.badge"
    case "of_type" =>
      "SELECT a.artifact_type || '=' || CAST(count(*) AS VARCHAR) AS v FROM artifacts a " +
        s"WHERE ${endpointPred(endpoint, in)} GROUP BY a.artifact_type"
    case other => throw new IllegalArgumentException(s"no rollup template for endpoint '$other'")
  }

  /** Autocomplete values for an input type. */
  def valuesSql(inputType: String, prefix: String, limit: Int): String = {
    val (table, column, where) = inputType match {
      case "user"          => ("users", "user_name", "TRUE")
      case "team"          => ("teams", "team_name", "TRUE")
      case "badge"         => ("badges", "badge", "TRUE")
      case "artifact_type" => ("artifacts", "artifact_type", "TRUE")
      case "table"         => ("artifacts", "name", "artifact_type = 'table'")
      case "artifact"      => ("artifacts", "name", "TRUE")
      case other => throw new IllegalArgumentException(s"no values template for '$other'")
    }
    val pre = prefix.trim.toLowerCase
    s"SELECT v FROM (SELECT DISTINCT $column AS v FROM $table WHERE $where AND $column IS NOT NULL " +
      s"AND starts_with(lower($column), ${lit(pre)}) ORDER BY v LIMIT $limit) t"
  }
}
