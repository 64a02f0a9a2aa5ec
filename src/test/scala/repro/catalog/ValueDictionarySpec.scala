package repro.catalog

import scala.util.Random
import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkJobs, SparkSpec, TestFixtures}
import repro.search.Suggest
import repro.spec.UseCaseSpec
import repro.ui.Interface

class ValueDictionarySpec extends SparkSpec {

  private lazy val ctx = TestFixtures.ctx
  private def cat = ctx.catalog

  /** The fixture catalog with users whose names are not ASCII, one of them
    * outside the Basic Multilingual Plane (where Java's `String` order and
    * Spark's differ), and an `ALEX` beside `Alex`.
    */
  private lazy val extra: CatalogTables = {
    import spark.implicits._
    val added = Seq((9001L, "Émile Zoë"), (9002L, "ﬁona"), (9003L, "😀 smiley"), (9004L, "ALEX"))
      .map { case (id, name) => (id, name, 1L) }.toDF("user_id", "user_name", "team_id")
    cat.copy(users = cat.users.unionByName(added))
  }

  private val Kinds = Seq("user", "team", "badge", "artifact_type", "table")

  /** Each input type's distinct values in DuckDB SQL, as `vals(kind, v)`. */
  private val valsSql =
    """WITH vals AS (
      |  SELECT 'user' AS kind, user_name AS v FROM users UNION
      |  SELECT 'team', team_name FROM teams UNION
      |  SELECT 'badge', badge FROM badges UNION
      |  SELECT 'artifact_type', artifact_type FROM artifacts UNION
      |  SELECT 'table', name FROM artifacts WHERE artifact_type = 'table')
      |""".stripMargin

  private def tables(c: CatalogTables): Seq[(String, DataFrame)] =
    Seq("users" -> c.users, "teams" -> c.teams, "badges" -> c.badges, "artifacts" -> c.artifacts)

  private def assertListsMatch(c: CatalogTables): Unit = {
    import spark.implicits._
    val got = Kinds.flatMap(k => c.valueDictionary.complete(k, "", Int.MaxValue).zipWithIndex
      .map { case (v, pos) => (k, pos, v) }).toDF("kind", "pos", "v")
    Oracle.assertEquivalent(got,
      valsSql + """SELECT kind, row_number() OVER (PARTITION BY kind ORDER BY v) - 1 AS pos, v
                  |FROM vals WHERE v IS NOT NULL""".stripMargin,
      tables(c): _*)
  }

  /** The first 20 values of each `(kind, prefix)` against DuckDB's
    * `starts_with(lower(v), lower(trim(prefix))) ORDER BY v LIMIT 20`.
    */
  private def assertPrefixesMatch(c: CatalogTables, prefixes: Seq[(String, String)]): Unit = {
    import spark.implicits._
    val got = prefixes.zipWithIndex.flatMap { case ((k, p), i) =>
      c.valueDictionary.complete(k, p, 20).zipWithIndex.map { case (v, pos) => (i, pos, v) }
    }.toDF("i", "pos", "v")
    val asked = prefixes.zipWithIndex.map { case ((k, p), i) => (i, k, p) }.toDF("i", "kind", "p")
    Oracle.assertEquivalent(got,
      valsSql +
        """, hits AS (
          |  SELECT p.i, vals.v, row_number() OVER (PARTITION BY p.i ORDER BY vals.v) - 1 AS pos
          |  FROM prefixes p JOIN vals ON vals.kind = p.kind AND vals.v IS NOT NULL
          |    AND starts_with(lower(vals.v), lower(trim(p.p))))
          |SELECT i, pos, v FROM hits WHERE pos < 20""".stripMargin,
      tables(c) :+ ("prefixes" -> asked): _*)
  }

  test("oracle: each input type's values equal DuckDB's SELECT DISTINCT, in its order") {
    assertListsMatch(cat)
  }

  test("oracle: the values of users with names outside ASCII come in Spark's order") {
    assertListsMatch(extra)
    val users = extra.valueDictionary.complete("user", "", Int.MaxValue)
    // U+FB01 sorts before U+1F600 in code point order; Java's UTF-16 order puts it after.
    assert(users.indexOf("ﬁona") < users.indexOf("😀 smiley"))
  }

  test("oracle: the context of every artifact id, and of an unknown id, equals a DuckDB join") {
    import spark.implicits._
    val ids = cat.artifacts.select("artifact_id").collect().map(_.getLong(0)).toSeq
    assert(cat.valueDictionary.context(999999L).isEmpty)
    val got = (ids :+ 999999L).map(cat.valueDictionary.context).filter(_.nonEmpty).map { c =>
      (c("artifact"), c("artifact_type"), c.get("user").orNull, c.get("team").orNull,
        c.get("badge").orNull, c.get("table").orNull)
    }.toDF("artifact", "artifact_type", "user", "team", "badge", "table")
    Oracle.assertEquivalent(got,
      """SELECT a.artifact_id AS artifact, a.artifact_type, u.user_name AS "user",
        |  t.team_name AS team, b.badge,
        |  CASE WHEN a.artifact_type = 'table' THEN a.name END AS "table"
        |FROM artifacts a
        |LEFT JOIN users u ON u.user_id = a.owner_id
        |LEFT JOIN teams t ON t.team_id = a.team_id
        |LEFT JOIN (SELECT artifact_id, min(badge) AS badge FROM badges GROUP BY artifact_id) b
        |  ON b.artifact_id = a.artifact_id""".stripMargin,
      tables(cat): _*)
  }

  test("oracle: random prefixes match DuckDB's starts_with over the lower case") {
    val rnd = new Random(7)
    def mixedCase(s: String) = s.map(ch => if (rnd.nextBoolean()) ch.toUpper else ch.toLower)
    val drawn = for {
      k <- Kinds
      values = cat.valueDictionary.complete(k, "", Int.MaxValue).toIndexedSeq
      _ <- 1 to 8
    } yield {
      val v = values(rnd.nextInt(values.size))
      k -> mixedCase(v.take(1 + rnd.nextInt(math.min(4, v.length))))
    }
    val fixed = Seq("user" -> "", "user" -> "'", "user" -> "  jO ", "table" -> "Sales_", "badge" -> "E")
    assertPrefixesMatch(cat, drawn ++ fixed)
  }

  test("oracle: prefixes of names outside ASCII match DuckDB") {
    assertPrefixesMatch(extra, Seq("émi", "ÉMILE Z", " émile ", "ﬁ", "😀", "a", "ALE", "zoë")
      .map("user" -> _))
  }

  test("every value an exploration click binds is a value autocomplete offers; an artifact id lists none") {
    val d = cat.valueDictionary
    val ids = cat.artifacts.select("artifact_id").collect().map(_.getLong(0)).toSeq
    val unoffered = for {
      id <- ids
      (kind, v) <- Interface.explorationContext(ctx, id) if kind != "artifact"
      if !d.complete(kind, v, Int.MaxValue).contains(v)
    } yield (id, kind, v)
    assert(ids.nonEmpty && unoffered.isEmpty, unoffered.take(5))
    val suggest = new Suggest(UseCaseSpec.default, ctx)
    for (prefix <- Seq("", "1", "air")) assert(suggest.valuesForType("artifact", prefix).isEmpty, prefix)
  }

  test("a typed value binds as itself, else the one value equal ignoring case, else as typed") {
    val d = cat.valueDictionary
    assert(d.canonical("user", "Alex") == "Alex")
    assert(d.canonical("user", "alex") == "Alex")
    assert(d.canonical("user", "JOHN doe") == "John Doe")
    assert(d.canonical("badge", "ENDORSED") == "endorsed")
    assert(d.canonical("table", "airlines") == "AIRLINES")
    assert(d.canonical("user", "nobody") == "nobody")
    assert(d.canonical("text", "alex") == "alex")
    // With both Alex and ALEX, `alex` is ambiguous; each exact name stands.
    assert(extra.valueDictionary.canonical("user", "alex") == "alex")
    assert(extra.valueDictionary.canonical("user", "ALEX") == "ALEX")
    assert(extra.valueDictionary.canonical("user", "Alex") == "Alex")
    assert(extra.valueDictionary.canonical("user", "émile zoë") == "Émile Zoë")
  }

  test("once the dictionary is built, value completion and the exploration context start no Spark job") {
    val suggest = new Suggest(UseCaseSpec.default, ctx)
    suggest.valuesFor("owned by")
    val jobs = Seq(
      SparkJobs.count(spark)(suggest.valuesFor("owned by", "Jo")),
      SparkJobs.count(spark)(suggest.valuesForType("artifact", "air")),
      SparkJobs.count(spark)(suggest.valuesForType("table")),
      SparkJobs.count(spark)(Interface.explorationContext(ctx, 1L)),
      SparkJobs.count(spark)(Interface.explorationContext(ctx, 999999L)))
    assert(jobs == Seq(0, 0, 0, 0, 0), jobs)
  }
}
