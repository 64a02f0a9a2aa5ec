package repro.providers

import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.{Oracle, SparkSpec, TestFixtures}
import repro.catalog.CatalogTables
import repro.spec.Representation

/** The SQL providers bind every input as a parameter value. Each fetch
  * below is checked against hand-written DuckDB SQL in which the value is a
  * quoted literal, so a value that reached the query text (a quote, a
  * placeholder, a wildcard) would change the rows.
  */
class SqlProviderSpec extends SparkSpec {
  import StandardProviders._

  private lazy val ctx = TestFixtures.ctx
  private def cat = ctx.catalog

  /** Values that mean something to SQL text or to the placeholders. */
  private val hostile = Seq("Alex' OR '1'='1", "{base}", "%")

  private def quoted(v: String): String = "'" + v.replace("'", "''") + "'"

  /** A DuckDB query for the distinct artifact ids of one fetch, given the
    * input value as a quoted literal. */
  private val idsOf: Seq[(SqlProvider, String, String, String => String)] = Seq(
    (OwnedBy, "user", "Alex", v =>
      s"""SELECT a.artifact_id FROM artifacts a JOIN users u ON a.owner_id = u.user_id
         |WHERE u.user_name = $v""".stripMargin),
    (Badged, "badge", "endorsed", v =>
      s"""SELECT a.artifact_id FROM artifacts a JOIN badges b ON a.artifact_id = b.artifact_id
         |WHERE b.badge = $v""".stripMargin),
    (Badged, "user", "Mike", v =>
      s"""SELECT a.artifact_id FROM artifacts a JOIN badges b ON a.artifact_id = b.artifact_id
         |JOIN users u ON b.badged_by = u.user_id WHERE u.user_name = $v""".stripMargin),
    (BadgedBy, "user", "Mike", v =>
      s"""SELECT a.artifact_id FROM artifacts a JOIN badges b ON a.artifact_id = b.artifact_id
         |JOIN users u ON b.badged_by = u.user_id WHERE u.user_name = $v""".stripMargin),
    (OfType, "artifact_type", "dashboard", v =>
      s"SELECT artifact_id FROM artifacts WHERE artifact_type = $v"),
    (TeamDocs, "team", "A Team", v =>
      s"""SELECT a.artifact_id FROM artifacts a JOIN teams t ON a.team_id = t.team_id
         |WHERE t.team_name = $v""".stripMargin),
    // Over the cached usage counts, which ProvidersSpec checks against the
    // usage events, so that DuckDB need not load every event again.
    (TeamFrequent, "team", "A Team", v =>
      s"""SELECT tu.artifact_id FROM team_usage tu JOIN artifacts a ON tu.artifact_id = a.artifact_id
         |WHERE tu.team_name = $v""".stripMargin),
    (Joinable, "table", "airlines", v =>
      s"""SELECT n.artifact_id FROM edges e
         |JOIN artifacts s ON upper(s.name) = upper(e.src_table)
         |JOIN artifacts d ON upper(d.name) = upper(e.dst_table)
         |JOIN artifacts n ON n.artifact_id IN (s.artifact_id, d.artifact_id)
         |WHERE lower(e.src_table) = lower($v) OR lower(e.dst_table) = lower($v)""".stripMargin),
    (TextMatch, "q", "Sales", v =>
      s"""SELECT artifact_id FROM artifacts
         |WHERE contains(lower(name), lower($v)) OR contains(lower(description), lower($v))""".stripMargin),
  )

  for ((p, input, real, oracle) <- idsOf) {
    test(s"${p.endpoint}: a '$input' value is bound as a value, never as query text") {
      val values = real +: hostile
      val got = values.zipWithIndex.map { case (v, i) =>
        Contracts.artifactIds(p.representation, p.fetch(ctx, Map(input -> v)))
          .select(lit(i).as("v"), col("artifact_id"))
      }.reduce(_ unionByName _)
      val sql = values.zipWithIndex.map { case (v, i) =>
        s"SELECT DISTINCT $i AS v, CAST(q.artifact_id AS BIGINT) AS artifact_id FROM (${oracle(quoted(v))}) q"
      }.mkString("\nUNION ALL\n")
      val tables = Seq("artifacts" -> cat.artifacts, "users" -> cat.users, "teams" -> cat.teams,
        "badges" -> cat.badges, "team_usage" -> cat.teamUsage, "edges" -> ctx.joinEdges.get)
      Oracle.assertEquivalent(got, sql, tables.filter(t => sql.contains(t._1)): _*)
      assert(got.where(col("v") === 0).count() > 0, s"'$real' matches nothing")
    }
  }

  test("badged with neither input is every badged artifact") {
    Oracle.assertEquivalent(Badged.fetch(ctx, Map.empty).select(col("artifact_id")).distinct(),
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a JOIN badges b ON a.artifact_id = b.artifact_id""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges)
  }

  test("a query's needs are its parameters, subqueries included, but the optional ones") {
    val p = SqlProvider("x", Representation.ListRep,
      """SELECT * FROM {base} WHERE name = :a
        |AND artifact_id IN (SELECT artifact_id FROM {badges} WHERE badge = :b)""".stripMargin)
    assert(p.needs == Set("a", "b"))
    assert(p.copy(optional = Set("b")).needs == Set("a"))
    assert(Badged.needs.isEmpty && OfType.needs.isEmpty)
  }

  test("a query that names an unknown relation fails with its name") {
    val p = SqlProvider("x", Representation.ListRep, "SELECT * FROM {nowhere}")
    val e = intercept[IllegalStateException](p.fetch(ctx, Map.empty))
    assert(e.getMessage.contains("nowhere"))
  }

  test("lineage_children: an 'artifact' value reads root 1's rows or no rows, never query text") {
    val values = Seq("1", "AIRLINES", "1 OR 1=1", "{base}", "%")
    val got = values.zipWithIndex.map { case (v, i) =>
      LineageChildren.fetch(ctx, Map("artifact" -> v))
        .select(lit(i).as("v"), col("artifact_id").cast("long").as("artifact_id"),
          col("parent_id").cast("long").as("parent_id"), col("depth"))
    }.reduce(_ unionByName _)
    val sql = values.zipWithIndex.map { case (v, i) =>
      s"""SELECT $i AS v, w.artifact_id, w.parent_id, CAST(w.depth AS INT) AS depth FROM (
         |  WITH RECURSIVE walk(artifact_id, parent_id, depth) AS (
         |    SELECT TRY_CAST(${quoted(v)} AS BIGINT), CAST(NULL AS BIGINT), 0
         |    UNION ALL
         |    SELECT CAST(l.child_id AS BIGINT), CAST(l.parent_id AS BIGINT), walk.depth + 1
         |    FROM lineage l JOIN walk ON CAST(l.parent_id AS BIGINT) = walk.artifact_id
         |    WHERE walk.depth < ${CatalogTables.LineageMaxDepth})
         |  SELECT * FROM walk) w
         |JOIN artifacts a ON CAST(a.artifact_id AS BIGINT) = w.artifact_id""".stripMargin
    }.mkString("\nUNION ALL\n")
    Oracle.assertEquivalent(got, sql, "artifacts" -> cat.artifacts, "lineage" -> cat.lineage)
    assert(got.where(col("v") === 0 && col("depth") > 0).count() > 0, "root 1 has no children")
  }

  test("a query reads placeholders and parameters inside WITH, and a CTE's name is never a relation") {
    // The CTE is named `base` too: were its name looked up as a placeholder,
    // the query would read every artifact.
    val p = SqlProvider("owned_by_with", Representation.ListRep,
      """WITH base AS (
        |  SELECT b.* FROM {base} b JOIN {users} u ON b.owner_id = u.user_id WHERE u.user_name = :user)
        |SELECT * FROM base""".stripMargin)
    assert(p.needs == Set("user"))
    for (v <- Seq("Alex", "Alex' OR '1'='1", "{base}")) {
      val got = p.fetch(ctx, Map("user" -> v))
      assert(got.columns.toSeq == OwnedBy.fetch(ctx, Map("user" -> v)).columns.toSeq)
      Oracle.assertEquivalent(got.select(col("artifact_id").cast("long").as("artifact_id")),
        s"""SELECT CAST(a.artifact_id AS BIGINT) AS artifact_id
           |FROM artifacts a JOIN users u ON a.owner_id = u.user_id
           |WHERE u.user_name = ${quoted(v)}""".stripMargin,
        "artifacts" -> cat.artifacts, "users" -> cat.users)
    }
  }

  test("a second catalog's lineage closure leaves the first cached and registers no table") {
    val first = cat.lineageClosure
    first.count()
    val tables = spark.catalog.listTables().collect().map(_.name).toSet
    val second = cat.copy(artifacts = cat.artifacts.where(col("artifact_id") <= 100))
    assert(second.lineageClosure.count() < first.count())
    assert(first.storageLevel != StorageLevel.NONE && second.lineageClosure.storageLevel != StorageLevel.NONE)
    assert(spark.catalog.listTables().collect().map(_.name).toSet == tables)
  }
}
