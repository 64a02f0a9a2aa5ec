package repro.search

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Oracle, PropCheck, SparkSpec, TestFixtures}
import repro.catalog.CatalogSchema
import repro.providers.{Provider, ProviderContext, Registry, StandardProviders}
import repro.spec._

class QueryCompilerSpec extends SparkSpec {

  private lazy val ctx = TestFixtures.ctx
  private lazy val compiler = new QueryCompiler(UseCaseSpec.default, Registry.standard, ctx)
  private def cat = ctx.catalog

  private def ids(input: String, scope: Option[DataFrame] = None): DataFrame =
    compiler.search(input, scope)
      .fold(e => fail(s"'$input' failed: $e"), identity)
      .select(col("artifact_id").cast("long")).distinct()

  private def idSet(input: String): Set[Long] =
    ids(input).collect().map(_.getLong(0)).toSet

  // ---- single elements, oracle-checked ------------------------------------

  test("oracle: free text query") {
    Oracle.assertEquivalent(ids("sales"),
      """SELECT DISTINCT CAST(artifact_id AS BIGINT) AS artifact_id FROM artifacts
        |WHERE lower(name) LIKE '%sales%' OR lower(description) LIKE '%sales%'
        |""".stripMargin,
      "artifacts" -> cat.artifacts)
  }

  test("oracle: field predicate owned by") {
    Oracle.assertEquivalent(ids("owned by: 'Alex'"),
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a JOIN users u ON a.owner_id = u.user_id
        |WHERE u.user_name = 'Alex'""".stripMargin,
      "artifacts" -> cat.artifacts, "users" -> cat.users)
  }

  test("oracle: field predicate type") {
    Oracle.assertEquivalent(ids("type: dashboard"),
      """SELECT DISTINCT CAST(artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts WHERE artifact_type = 'dashboard'""".stripMargin,
      "artifacts" -> cat.artifacts)
  }

  test("oracle: conjunction compiles to intersection") {
    Oracle.assertEquivalent(ids("type: table & badged: endorsed"),
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a JOIN badges b ON a.artifact_id = b.artifact_id
        |WHERE a.artifact_type = 'table' AND b.badge = 'endorsed'""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges)
  }

  test("oracle: disjunction compiles to union") {
    Oracle.assertEquivalent(ids("type: dashboard | badged: warning"),
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a
        |WHERE a.artifact_type = 'dashboard'
        |   OR EXISTS (SELECT 1 FROM badges b
        |              WHERE b.artifact_id = a.artifact_id AND b.badge = 'warning')
        |""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges)
  }

  test("oracle: negation compiles to anti-join against the universe") {
    Oracle.assertEquivalent(ids("! badged: endorsed"),
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a
        |WHERE NOT EXISTS (SELECT 1 FROM badges b
        |                  WHERE b.artifact_id = a.artifact_id AND b.badge = 'endorsed')
        |""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges)
  }

  test("oracle: bracketed composition with and/or/not") {
    Oracle.assertEquivalent(ids("type: table & (badged: warning | ! owned by: 'Alex')"),
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a
        |WHERE a.artifact_type = 'table' AND (
        |  EXISTS (SELECT 1 FROM badges b
        |          WHERE b.artifact_id = a.artifact_id AND b.badge = 'warning')
        |  OR NOT EXISTS (SELECT 1 FROM users u
        |                 WHERE a.owner_id = u.user_id AND u.user_name = 'Alex'))
        |""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges, "users" -> cat.users)
  }

  test("oracle: the abstract's flagship query") {
    Oracle.assertEquivalent(ids(UseCaseSpec.flagshipQuery),
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a
        |JOIN users o ON a.owner_id = o.user_id
        |WHERE a.artifact_type = 'table'
        |  AND o.user_name = 'Alex'
        |  AND EXISTS (SELECT 1 FROM badges b
        |              WHERE b.artifact_id = a.artifact_id AND b.badge = 'endorsed')
        |  AND EXISTS (SELECT 1 FROM badges b JOIN users m ON b.badged_by = m.user_id
        |              WHERE b.artifact_id = a.artifact_id AND m.user_name = 'Mike')
        |  AND (lower(a.name) LIKE '%sales%' OR lower(a.description) LIKE '%sales%')
        |""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges, "users" -> cat.users)
  }

  test("flagship query returns exactly the pinned sales tables") {
    assert(idSet(UseCaseSpec.flagshipQuery) == Set(2L, 3L))
  }

  test("task 3 query returns exactly John Doe's workbooks") {
    assert(idSet("type: workbook created by: 'John Doe'") == Set(7L, 8L, 9L))
  }

  // ---- provider calls and scoring -----------------------------------------

  test("prefix provider call works like the paper's example") {
    val df = compiler.search(":recent_documents() & airlines")
      .fold(e => fail(e), identity)
    val names = df.select("name").collect().map(_.getString(0))
    assert(names.exists(_.contains("AIRLINES")))
  }

  test("provider call with positional args binds declared inputs") {
    assert(idSet(":owned_by('John Doe')") ==
      idSet("created by: 'John Doe'"))
  }

  test("scores combine additively under conjunction") {
    val single = compiler.search("badged: endorsed").fold(e => fail(e), identity)
      .where(col("artifact_id") === 1L).select("score").collect()(0).getDouble(0)
    val double = compiler.search("badged: endorsed & type: table")
      .fold(e => fail(e), identity)
      .where(col("artifact_id") === 1L).select("score").collect()(0).getDouble(0)
    assert(math.abs(double - 2 * single) < 1e-6)
  }

  test("results are ordered by score descending") {
    val scores = compiler.search("type: table").fold(e => fail(e), identity)
      .select("score").collect().map(_.getDouble(0))
    assert(scores.zip(scores.tail).forall { case (a, b) => a >= b })
  }

  test("per-provider ranking weights are honored in scoring") {
    // The 'Popular' provider has local weight views*2.0; 'Recent Documents'
    // falls back to global. Same artifact, different provider, different score.
    val viaGlobal = compiler.search(":recent_documents()").fold(e => fail(e), identity)
      .where(col("artifact_id") === 1L).select("score").collect()(0).getDouble(0)
    val expectGlobal = 40 * 4.3 + 5000 * 1.5 + 1 * 10.0 // favorites, views, endorsements
    assert(math.abs(viaGlobal - expectGlobal) < 1e-6)
  }

  // ---- filter vs search scope ----------------------------------------------

  test("filter scope narrows results to the view (§5.3)") {
    import spark.implicits._
    val scope = Seq(2L, 7L).toDF("artifact_id")
    val global = idSet("owned by: 'Alex'")
    val filtered = ids("owned by: 'Alex'", Some(scope)).collect().map(_.getLong(0)).toSet
    assert(global.contains(2L) && global.size > 1)
    assert(filtered == Set(2L))
  }

  test("negation universe respects the filter scope") {
    import spark.implicits._
    val scope = Seq(1L, 2L, 7L).toDF("artifact_id")
    val got = ids("! owned by: 'Alex'", Some(scope)).collect().map(_.getLong(0)).toSet
    assert(got == Set(7L)) // 1 and 2 are Alex's
  }

  test("empty result is fine (no match, no error)") {
    assert(idSet("type: table owned by: 'John Doe' badged: endorsed").isEmpty)
  }

  test("a typed value binds in the catalog's case, in pill and prefix syntax") {
    val alex = idSet("owned by: 'Alex'")
    assert(alex.nonEmpty)
    Seq("owned by: 'alex'", "owned by: ALEX", ":owned_by(aLeX)").foreach(q => assert(idSet(q) == alex, q))
    assert(idSet("type: TABLE badged: Endorsed badged by: 'MIKE'") ==
      idSet("type: table badged: endorsed badged by: 'Mike'"))
  }

  test("an ambiguous or unknown typed value binds as typed") {
    import spark.implicits._
    val withAlexUpper = cat.copy(users = cat.users.unionByName(
      Seq((9004L, "ALEX", 1L)).toDF("user_id", "user_name", "team_id")))
    val c = new QueryCompiler(UseCaseSpec.default, Registry.standard, ctx.copy(catalog = withAlexUpper))
    def found(q: String) = c.search(q).fold(e => fail(s"'$q' failed: $e"), identity).count()
    // `alex` is equal ignoring case to both Alex and ALEX, so it names no user.
    assert(found("owned by: 'alex'") == 0)
    assert(found("owned by: 'Alex'") == idSet("owned by: 'Alex'").size)
    assert(idSet("owned by: 'nobody'").isEmpty)
  }

  test("parse errors surface as Left") {
    assert(compiler.search("type:").isLeft)
  }

  test("unknown field inside compilation throws informatively") {
    val q = Query.FieldPred("bogus key", "x")
    val e = intercept[IllegalArgumentException](compiler.run(q))
    assert(e.getMessage.contains("bogus key"))
  }

  test("or across text and metadata composes") {
    val got = idSet("'airlines' | badged: warning")
    assert(got.contains(1L)) // AIRLINES by text
    assert(got.contains(8L)) // CHURN_ANALYSIS has warning badge
  }

  test("inputs that do not bind are a Left, not an exception") {
    Seq(
      ":owned_by('a','b')" -> "provider 'Owned By' takes at most 1 arguments, got 2",
      ":owned_by()" -> "provider 'Owned By' is missing required inputs: user",
      ":recent_documents('x')" -> "provider 'Recent Documents' takes at most 0 arguments, got 1",
    ).foreach { case (input, message) =>
      assert(compiler.search(input) == Left(message), input)
    }
  }

  test("a search-visible provider on an unregistered endpoint is a Left") {
    val ghost = MetadataProviderSpec(
      name = "Ghost", category = "misc", description = "Names no registered endpoint",
      representation = Representation.ListRep, endpoint = "nope",
      inputs = Seq(InputSpec("q", "text", required = true)),
      visibility = Seq(Surface.Search), searchKey = Some("ghost"))
    val c = new QueryCompiler(UseCaseSpec.default.copy(providers = UseCaseSpec.default.providers :+ ghost),
      Registry.standard, ctx)
    assert(c.search("ghost: x") == Left("unregistered endpoint 'nope'"))
  }

  // ---- provider fetch errors -------------------------------------------------

  /** The default spec with provider `name` search-visible under `key`. */
  private def searchableSpec(name: String, key: Option[String]): HumboldtSpec =
    UseCaseSpec.default.copy(providers = UseCaseSpec.default.providers.map {
      case p if p.name == name => p.copy(visibility = p.visibility :+ Surface.Search, searchKey = key)
      case p => p
    })

  test("a lineage value that is not an artifact id is a Left; run throws") {
    val c = new QueryCompiler(searchableSpec("Lineage", Some("child of")), Registry.standard, ctx)
    val got = c.search("child of: AIRLINES")
    assert(got.swap.exists(e => e.contains("lineage_children") && e.contains("AIRLINES")), got)
    intercept[IllegalArgumentException](c.run(Query.FieldPred("child of", "AIRLINES")))
  }

  test("an artifact input binds only an id: a pill or a call with any other value is a Left") {
    val c = new QueryCompiler(searchableSpec("Lineage", Some("child of")), Registry.standard, ctx)
    for (q <- Seq("child of: 'x'", "child of: '1 OR 1=1'", ":lineage(x)", ":lineage('{base}')"))
      assert(c.search(q).swap.exists(_.contains("lineage_children")), q)
    def idsOf(df: DataFrame) = df.select(col("artifact_id").cast("long")).distinct().collect().toSet
    val root = idsOf(StandardProviders.LineageChildren.fetch(ctx, Map("artifact" -> "1")))
    for (q <- Seq("child of: '1'", ":lineage(1)"))
      assert(c.search(q).map(idsOf) == Right(root), q)
  }

  test("a graph or embedding element without extracted edges or coordinates is a Left") {
    val bare = ctx.copy(joinEdges = None, coordinates = None)
    val joinable = new QueryCompiler(searchableSpec("Joinable", Some("joinable with")), Registry.standard, bare)
    assert(joinable.search("joinable with: AIRLINES").swap.exists(_.contains("join edges")))
    val usageMap = new QueryCompiler(searchableSpec("Usage Map", None), Registry.standard, bare)
    assert(usageMap.search(":usage_map()").swap.exists(_.contains("coordinates")))
  }

  test("a spec input name the implementation does not read is a Left") {
    val renamed = UseCaseSpec.default.copy(providers = UseCaseSpec.default.providers.map {
      case p if p.name == "Owned By" => p.copy(inputs = Seq(InputSpec("owner", "user", required = true)))
      case p => p
    })
    val got = new QueryCompiler(renamed, Registry.standard, ctx).search("owned by: Alex")
    assert(got.swap.exists(_.contains("requires input 'user'")), got)
  }

  // ---- scoring rules -------------------------------------------------------

  private def scores(c: QueryCompiler, input: String): Map[Long, Double] =
    c.search(input).fold(e => fail(s"'$input' failed: $e"), identity)
      .select(col("artifact_id").cast("long"), col("score")).collect()
      .map(r => r.getLong(0) -> r.getDouble(1)).toMap

  /** The global weights over the enriched row, written out for DuckDB. */
  private val globalScoreSql =
    """CAST(a.favorites AS DOUBLE) * 4.3 + CAST(a.views AS DOUBLE) * 1.5
      |  + COALESCE(e.n, 0) * 10.0""".stripMargin
  private val endorsedSql =
    """LEFT JOIN (SELECT artifact_id, COUNT(*) AS n FROM badges
      |           WHERE badge = 'endorsed' GROUP BY artifact_id) e
      |  ON a.artifact_id = e.artifact_id""".stripMargin

  test("a weight on a field only the provider's rows carry scores from those rows") {
    object ViewsNear extends Provider {
      val endpoint = "views_near"
      val representation: Representation = Representation.ListRep
      def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame =
        ctx.enrichedArtifacts
          .withColumn("usage_distance", abs(col("views") - need(inputs, "views").toLong))
    }
    val entry = MetadataProviderSpec(
      name = "Views Near", category = "relatedness", description = "Artifacts by view distance",
      representation = Representation.ListRep, endpoint = "views_near",
      inputs = Seq(InputSpec("views", "text", required = true)),
      visibility = Seq(Surface.Search), searchKey = Some("views near"),
      ranking = Seq(RankingWeight("usage_distance", -1.0)))
    val c = new QueryCompiler(UseCaseSpec.default.copy(providers = UseCaseSpec.default.providers :+ entry),
      Registry.standard.register(ViewsNear), ctx)
    val views = ctx.enrichedArtifacts.select(col("artifact_id").cast("long"), col("views")).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    val got = scores(c, "views near: 1000")
    assert(got.keySet == views.keySet)
    got.foreach { case (id, s) => assert(s == -math.abs(views(id) - 1000).toDouble, id) }
  }

  test("oracle: a searchable graph element returns src and dst, scored on the enriched row") {
    val withGraph = UseCaseSpec.default.copy(providers = UseCaseSpec.default.providers.map {
      case p if p.representation == Representation.Graph =>
        p.copy(visibility = p.visibility :+ Surface.Search, searchKey = Some("joinable with"))
      case p => p
    })
    val df = new QueryCompiler(withGraph, Registry.standard, ctx).search("joinable with: AIRLINES")
      .fold(e => fail(e), identity)
      .select(col("artifact_id").cast("long").as("artifact_id"), round(col("score"), 4).as("score"))
    assert(df.where(col("artifact_id") === 1L).count() == 1)
    Oracle.assertEquivalent(df,
      s"""WITH nodes AS (
         |  SELECT s.artifact_id AS src, d.artifact_id AS dst
         |  FROM edges g
         |  JOIN artifacts s ON upper(s.name) = upper(g.src_table)
         |  JOIN artifacts d ON upper(d.name) = upper(g.dst_table)
         |  WHERE lower(g.src_table) = 'airlines' OR lower(g.dst_table) = 'airlines')
         |SELECT CAST(a.artifact_id AS BIGINT) AS artifact_id, ROUND($globalScoreSql, 4) AS score
         |FROM artifacts a $endorsedSql
         |WHERE a.artifact_id IN (SELECT src FROM nodes UNION SELECT dst FROM nodes)
         |""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges,
      "edges" -> ctx.joinEdges.get.select("src_table", "dst_table"))
  }

  test("an artifact in both branches of | gets the sum of both scores") {
    val single = scores(compiler, "badged: endorsed")(1L)
    assert(scores(compiler, "type: table")(1L) == single)
    assert(scores(compiler, "type: table | badged: endorsed")(1L) == 2 * single)
    assert(scores(compiler, "type: dashboard | badged: endorsed")(1L) == single)
  }

  test("! adds 0 to the score") {
    val single = scores(compiler, "type: table")(1L)
    assert(scores(compiler, "type: table & ! badged: warning")(1L) == single)
    assert(scores(compiler, "! badged: warning").values.forall(_ == 0.0))
  }

  // ---- random queries against DuckDB ----------------------------------------

  private val users = Seq("Alex", "Mike", "John Doe", "user_7")

  private val elementGen: Gen[Query] = Gen.oneOf(
    Gen.oneOf(CatalogSchema.ArtifactTypes).map(Query.FieldPred("type", _)),
    Gen.oneOf(users).map(Query.FieldPred("owned by", _)),
    Gen.oneOf(users).map(Query.FieldPred("created by", _)),
    Gen.oneOf(CatalogSchema.BadgeTypes).map(Query.FieldPred("badged", _)),
    Gen.oneOf(users).map(Query.FieldPred("badged by", _)),
    Gen.const(Query.ProviderCall("recent_documents", Nil)),
    Gen.oneOf("sales", "airlines", "revenue", "churn").map(Query.Text(_)))

  private def queryGen(depth: Int): Gen[Query] =
    if (depth == 0) elementGen
    else Gen.frequency(
      2 -> elementGen,
      3 -> Gen.zip(queryGen(depth - 1), queryGen(depth - 1)).map { case (l, r) => Query.And(l, r) },
      3 -> Gen.zip(queryGen(depth - 1), queryGen(depth - 1)).map { case (l, r) => Query.Or(l, r) },
      1 -> queryGen(depth - 1).map(Query.Not(_)))

  /** `(predicate, score)` in DuckDB SQL over `a`, which carries the global
    * score `s`: one predicate per element, scores summed over the elements
    * that hold.
    */
  private def sql(q: Query): (String, String) = q match {
    case Query.FieldPred("type", v) => (s"a.artifact_type = '$v'", "a.s")
    case Query.FieldPred("owned by" | "created by", v) =>
      (s"EXISTS (SELECT 1 FROM users u WHERE u.user_id = a.owner_id AND u.user_name = '$v')", "a.s")
    case Query.FieldPred("badged", v) =>
      (s"EXISTS (SELECT 1 FROM badges b WHERE b.artifact_id = a.artifact_id AND b.badge = '$v')", "a.s")
    case Query.FieldPred("badged by", v) =>
      (s"""EXISTS (SELECT 1 FROM badges b JOIN users u ON b.badged_by = u.user_id
          |        WHERE b.artifact_id = a.artifact_id AND u.user_name = '$v')""".stripMargin, "a.s")
    case Query.ProviderCall("recent_documents", Nil) => ("TRUE", "a.s")
    case Query.Text(w) =>
      (s"COALESCE(lower(a.name) LIKE '%$w%' OR lower(a.description) LIKE '%$w%', FALSE)", "a.s")
    case Query.And(l, r) =>
      val ((pl, sl), (pr, sr)) = (sql(l), sql(r))
      (s"($pl AND $pr)", s"($sl + $sr)")
    case Query.Or(l, r) =>
      val ((pl, sl), (pr, sr)) = (sql(l), sql(r))
      (s"($pl OR $pr)", s"(CASE WHEN $pl THEN $sl ELSE 0 END + CASE WHEN $pr THEN $sr ELSE 0 END)")
    case Query.Not(i) => (s"(NOT ${sql(i)._1})", "0")
    case other => fail(s"no SQL for $other")
  }

  test("oracle: random queries up to depth 3 match DuckDB in ids and scores") {
    import spark.implicits._
    val cases = scala.collection.mutable.LinkedHashMap.empty[String, Query]
    PropCheck.forAllG(queryGen(3), n = 30)(q => cases(q.render) = q)
    val got = cases.keys.toSeq.flatMap { text =>
      compiler.search(text).fold(e => fail(s"'$text' failed: $e"), identity)
        .select(col("artifact_id").cast("long"), round(col("score"), 4)).collect()
        .map(r => (text, r.getLong(0), r.getDouble(1)))
    }.toDF("qid", "artifact_id", "score")
    val expected = cases.map { case (text, q) =>
      val (pred, score) = sql(q)
      s"""SELECT '${text.replace("'", "''")}' AS qid, CAST(a.artifact_id AS BIGINT) AS artifact_id,
         |  ROUND($score, 4) AS score
         |FROM (SELECT a.*, $globalScoreSql AS s FROM artifacts a $endorsedSql) a
         |WHERE $pred
         |""".stripMargin
    }.mkString("UNION ALL\n")
    Oracle.assertEquivalent(got, expected,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges, "users" -> cat.users)
  }
}
