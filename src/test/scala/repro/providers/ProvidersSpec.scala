package repro.providers

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkJobs, SparkSpec, TestFixtures}
import repro.spec.Representation

class ProvidersSpec extends SparkSpec {
  import StandardProviders._

  private lazy val ctx = TestFixtures.ctx
  private def cat = ctx.catalog

  private def ids(df: DataFrame): DataFrame =
    df.select(col("artifact_id").cast("long")).distinct()

  // ---- contract conformance for every standard provider -------------------

  private val fetchable: Seq[(Provider, Map[String, String])] = Seq(
    Recents -> Map.empty[String, String],
    Frequent -> Map.empty[String, String],
    OwnedBy -> Map("user" -> "Alex"),
    Badged -> Map.empty[String, String],
    BadgedBy -> Map("user" -> "Mike"),
    OfType -> Map("artifact_type" -> "table"),
    TeamDocs -> Map("team" -> "A Team"),
    TeamFrequent -> Map("team" -> "A Team"),
    LineageChildren -> Map("artifact" -> "1"),
    Joinable -> Map("table" -> "AIRLINES"),
    EmbeddingView -> Map.empty[String, String],
    TextMatch -> Map("q" -> "sales"),
  )

  for ((p, inputs) <- fetchable) {
    test(s"${p.endpoint}: output satisfies its '${p.representation.name}' contract") {
      val df = p.fetch(ctx, inputs)
      Contracts.validate(p.representation, df)
      assert(Contracts.artifactIds(p.representation, df).count() > 0)
    }
  }

  test("no standard provider starts a Spark job in fetch") {
    ctx.enrichedArtifacts // build the shared fixture outside the count
    val jobs = fetchable.map { case (p, inputs) =>
      p.endpoint -> SparkJobs.count(spark)(p.fetch(ctx, inputs))
    }
    assert(jobs.forall(_._2 == 0), s"jobs started in fetch: ${jobs.filter(_._2 > 0)}")
  }

  for ((p, _) <- fetchable.filter(_._1.inputs0.nonEmpty)) {
    test(s"${p.endpoint}: missing required input raises MissingInputException") {
      assertThrows[MissingInputException](p.fetch(ctx, Map.empty))
    }
  }

  private implicit class ProviderOps(p: Provider) {
    /** required inputs this suite knows the provider demands */
    def inputs0: Seq[String] = p match {
      case OwnedBy | BadgedBy      => Seq("user")
      case TeamDocs | TeamFrequent => Seq("team")
      case LineageChildren         => Seq("artifact")
      case Joinable                => Seq("table")
      case TextMatch               => Seq("q")
      case _                       => Seq.empty
    }
  }

  // ---- oracle equivalences -------------------------------------------------

  test("oracle: owned_by matches SQL over users+artifacts") {
    val sparkDf = ids(OwnedBy.fetch(ctx, Map("user" -> "Alex")))
    Oracle.assertEquivalent(sparkDf,
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a JOIN users u ON a.owner_id = u.user_id
        |WHERE u.user_name = 'Alex'""".stripMargin,
      "artifacts" -> cat.artifacts, "users" -> cat.users)
  }

  test("oracle: badged with badge filter matches SQL") {
    val sparkDf = ids(Badged.fetch(ctx, Map("badge" -> "endorsed")))
    Oracle.assertEquivalent(sparkDf,
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a JOIN badges b ON a.artifact_id = b.artifact_id
        |WHERE b.badge = 'endorsed'""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges)
  }

  test("oracle: badged with badge and badger matches SQL") {
    val sparkDf = ids(Badged.fetch(ctx, Map("badge" -> "endorsed", "user" -> "Mike")))
    Oracle.assertEquivalent(sparkDf,
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a JOIN badges b ON a.artifact_id = b.artifact_id
        |JOIN users u ON b.badged_by = u.user_id
        |WHERE b.badge = 'endorsed' AND u.user_name = 'Mike'""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges, "users" -> cat.users)
  }

  test("oracle: badged_by matches SQL") {
    val sparkDf = ids(BadgedBy.fetch(ctx, Map("user" -> "Mike")))
    Oracle.assertEquivalent(sparkDf,
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a JOIN badges b ON a.artifact_id = b.artifact_id
        |JOIN users u ON b.badged_by = u.user_id
        |WHERE u.user_name = 'Mike'""".stripMargin,
      "artifacts" -> cat.artifacts, "badges" -> cat.badges, "users" -> cat.users)
  }

  test("oracle: of_type matches SQL") {
    val sparkDf = ids(OfType.fetch(ctx, Map("artifact_type" -> "workbook")))
    Oracle.assertEquivalent(sparkDf,
      """SELECT DISTINCT CAST(artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts WHERE artifact_type = 'workbook'""".stripMargin,
      "artifacts" -> cat.artifacts)
  }

  test("oracle: team_docs matches SQL") {
    val sparkDf = ids(TeamDocs.fetch(ctx, Map("team" -> "A Team")))
    Oracle.assertEquivalent(sparkDf,
      """SELECT DISTINCT CAST(a.artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts a JOIN teams t ON a.team_id = t.team_id
        |WHERE t.team_name = 'A Team'""".stripMargin,
      "artifacts" -> cat.artifacts, "teams" -> cat.teams)
  }

  test("oracle: team_frequent usage counts match SQL") {
    val sparkDf = TeamFrequent.fetch(ctx, Map("team" -> "A Team"))
      .select(col("artifact_id").cast("long").as("artifact_id"),
        col("team_uses").cast("long").as("team_uses"))
    Oracle.assertEquivalent(sparkDf,
      """SELECT CAST(g.artifact_id AS BIGINT) AS artifact_id,
        |       CAST(g.n AS BIGINT) AS team_uses
        |FROM (SELECT us.artifact_id, COUNT(*) AS n
        |      FROM usage_events us
        |      JOIN users u ON us.user_id = u.user_id
        |      JOIN teams t ON u.team_id = t.team_id
        |      WHERE t.team_name = 'A Team'
        |      GROUP BY us.artifact_id) g
        |JOIN artifacts a ON g.artifact_id = a.artifact_id""".stripMargin,
      "artifacts" -> cat.artifacts, "usage_events" -> cat.usage,
      "users" -> cat.users, "teams" -> cat.teams)
  }

  test("oracle: text_match matches SQL LIKE") {
    val sparkDf = ids(TextMatch.fetch(ctx, Map("q" -> "sales")))
    Oracle.assertEquivalent(sparkDf,
      """SELECT DISTINCT CAST(artifact_id AS BIGINT) AS artifact_id
        |FROM artifacts
        |WHERE lower(name) LIKE '%sales%' OR lower(description) LIKE '%sales%'
        |""".stripMargin,
      "artifacts" -> cat.artifacts)
  }

  test("oracle: lineage_children matches a recursive CTE") {
    // A fetch is the closure's rows for one root, restricted to artifacts.
    val tagged = cat.lineageClosure.join(cat.artifacts.select("artifact_id"), "artifact_id")
      .select(col("root").cast("long").as("root"),
        col("artifact_id").cast("long").as("artifact_id"),
        col("parent_id").cast("long").as("parent_id"),
        col("depth").cast("int").as("depth"))
    Oracle.assertEquivalent(tagged,
      """WITH RECURSIVE walk(root, artifact_id, parent_id, depth) AS (
        |  SELECT CAST(artifact_id AS BIGINT), CAST(artifact_id AS BIGINT),
        |         CAST(NULL AS BIGINT), 0
        |  FROM artifacts
        |  UNION ALL
        |  SELECT walk.root, CAST(l.child_id AS BIGINT), CAST(l.parent_id AS BIGINT),
        |         walk.depth + 1
        |  FROM lineage l JOIN walk ON CAST(l.parent_id AS BIGINT) = walk.artifact_id
        |  WHERE walk.depth < 8
        |)
        |SELECT walk.root, walk.artifact_id, walk.parent_id, CAST(walk.depth AS INT) AS depth
        |FROM walk JOIN artifacts a ON CAST(a.artifact_id AS BIGINT) = walk.artifact_id
        |""".stripMargin,
      "artifacts" -> cat.artifacts, "lineage" -> cat.lineage)
    def rows(df: DataFrame): Set[(Long, Any, Int)] =
      df.select("artifact_id", "parent_id", "depth").collect()
        .map(r => (r.getLong(0), r.get(1), r.getInt(2))).toSet
    for (root <- Seq(1L, 5L, 6L))
      assert(rows(LineageChildren.fetch(ctx, Map("artifact" -> root.toString))) ==
        rows(tagged.where(col("root") === root)), s"root $root")
  }

  test("oracle: teamUsage matches a GROUP BY over usage, users and teams") {
    val sparkDf = cat.teamUsage.select(col("team_name"),
      col("artifact_id").cast("long").as("artifact_id"), col("team_uses"))
    Oracle.assertEquivalent(sparkDf,
      """SELECT t.team_name, CAST(us.artifact_id AS BIGINT) AS artifact_id,
        |       COUNT(*) AS team_uses
        |FROM usage_events us
        |JOIN users u ON us.user_id = u.user_id
        |JOIN teams t ON u.team_id = t.team_id
        |GROUP BY t.team_name, us.artifact_id""".stripMargin,
      "usage_events" -> cat.usage, "users" -> cat.users, "teams" -> cat.teams)
  }

  test("oracle: joinEdgesById matches the edges joined to artifacts on upper(name)") {
    Oracle.assertEquivalent(ctx.joinEdgesById.get,
      """SELECT CAST(s.artifact_id AS BIGINT) AS src, CAST(d.artifact_id AS BIGINT) AS dst,
        |       CAST(e.score AS DOUBLE) AS weight,
        |       e.src_table, e.src_column, e.dst_table, e.dst_column
        |FROM edges e
        |JOIN artifacts s ON upper(s.name) = upper(e.src_table)
        |JOIN artifacts d ON upper(d.name) = upper(e.dst_table)""".stripMargin,
      "edges" -> ctx.joinEdges.get, "artifacts" -> cat.artifacts)
  }

  test("joinable returns the same edges for a table name in any case") {
    def edges(table: String): Set[String] =
      Joinable.fetch(ctx, Map("table" -> table)).collect().map(_.toString).toSet
    val expected = edges("AIRLINES")
    assert(expected.nonEmpty)
    assert(edges("airlines") == expected)
    assert(edges("Airlines") == expected)
  }

  test("a second team_frequent or joinable fetch reads its cached derived relation") {
    val derived = Seq(
      (TeamFrequent, Map("team" -> "A Team"), cat.teamUsage),
      (Joinable, Map("table" -> "AIRLINES"), ctx.joinEdgesById.get))
    for ((p, inputs, relation) <- derived) {
      p.fetch(ctx, inputs).collect()
      val built = relation.queryExecution.withCachedData match {
        case r: InMemoryRelation => r
        case other => fail(s"${p.endpoint}: derived relation is not cached: $other")
      }
      assert(built.cacheBuilder.isCachedColumnBuffersLoaded, p.endpoint)
      // Every leaf of the second fetch is a cached relation, the derived one
      // among them, so nothing is recomputed from the catalog's tables.
      val leaves = p.fetch(ctx, inputs).queryExecution.withCachedData.collectLeaves()
      assert(leaves.forall(_.isInstanceOf[InMemoryRelation]), s"${p.endpoint}: $leaves")
      assert(leaves.exists {
        case r: InMemoryRelation => r.cacheBuilder eq built.cacheBuilder
        case _ => false
      }, p.endpoint)
    }
  }

  // ---- behavioral specifics ------------------------------------------------

  test("recents is ordered newest first") {
    val dates = Recents.fetch(ctx, Map.empty).select("created_at")
      .collect().map(_.getDate(0).toString)
    assert(dates.zip(dates.tail).forall { case (a, b) => a >= b })
  }

  test("frequent is ordered by views desc") {
    val views = Frequent.fetch(ctx, Map.empty).select("views").collect().map(_.getLong(0))
    assert(views.zip(views.tail).forall { case (a, b) => a >= b })
  }

  test("lineage of AIRLINES reaches the dashboard at depth 2") {
    val rows = LineageChildren.fetch(ctx, Map("artifact" -> "1"))
      .select("artifact_id", "depth").collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(rows(1L) == 0)
    assert(rows(5L) == 1) // AIRLINES_OVERVIEW
    assert(rows(6L) == 2) // AIRLINES_DASHBOARD
  }

  test("lineage of a leaf is just the root") {
    val rows = LineageChildren.fetch(ctx, Map("artifact" -> "6")).collect()
    assert(rows.length == 1)
  }

  test("joinable graph around AIRLINES links the region tables") {
    val df = Joinable.fetch(ctx, Map("table" -> "AIRLINES"))
    val tables = df.select("src_table").collect().map(_.getString(0)).toSet ++
      df.select("dst_table").collect().map(_.getString(0)).toSet
    assert(tables.contains("AIRLINES"))
    assert(tables.contains("REGIONAL_SALES"))
    // node ids resolve to artifact ids
    val nodeIds = Contracts.artifactIds(Representation.Graph, df)
      .collect().map(_.getLong(0)).toSet
    assert(nodeIds.contains(1L)) // AIRLINES artifact id
  }

  test("joinable without extracted edges fails with a clear error") {
    val bare = ctx.copy(joinEdges = None)
    assertThrows[IllegalStateException](Joinable.fetch(bare, Map("table" -> "AIRLINES")))
  }

  test("embedding provider carries x and y for all artifacts") {
    val df = EmbeddingView.fetch(ctx, Map.empty)
    assert(df.count() == cat.artifacts.count())
    assert(df.where(col("x").isNull || col("y").isNull).count() == 0)
  }

  test("embedding without coordinates fails with a clear error") {
    val bare = ctx.copy(coordinates = None)
    assertThrows[IllegalStateException](EmbeddingView.fetch(bare, Map.empty))
  }

  test("text match is case-insensitive") {
    val a = ids(TextMatch.fetch(ctx, Map("q" -> "SALES"))).count()
    val b = ids(TextMatch.fetch(ctx, Map("q" -> "sales"))).count()
    assert(a == b && a > 0)
  }

  test("unknown user yields empty, not error") {
    assert(OwnedBy.fetch(ctx, Map("user" -> "Nobody Real")).count() == 0)
  }

  test("enriched artifacts expose endorsements and age for ranking") {
    val row = ctx.enrichedArtifacts.where(col("artifact_id") === 1L).collect()(0)
    assert(row.getAs[Long]("endorsements") == 1L)
    assert(row.getAs[Long]("age_days") > 0)
  }

  test("enrichment does not duplicate artifacts") {
    assert(ctx.enrichedArtifacts.count() == cat.artifacts.count())
  }
}
