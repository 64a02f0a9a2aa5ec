package repro.providers

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.catalog.CatalogTables

class LineageEdgeCasesSpec extends SparkSpec {
  import spark.implicits._

  /** A catalog whose lineage is exactly `edges`, with one artifact per id. */
  private def catalogWith(ids: Seq[Long], edges: Seq[(Long, Long)]): ProviderContext = {
    val base = TestFixtures.ctx.catalog
    val artifacts = ids.map(i =>
      (i, s"N$i", "table", 1L, 1L, java.sql.Date.valueOf("2023-01-01"), 1L, 0L, ""))
      .toDF("artifact_id", "name", "artifact_type", "owner_id", "team_id",
        "created_at", "views", "favorites", "description")
    ProviderContext(spark, CatalogTables(
      artifacts = artifacts,
      users = base.users, teams = base.teams,
      badges = base.badges.limit(0),
      lineage = edges.toDF("parent_id", "child_id"),
      usage = base.usage.limit(0)))
  }

  test("hierarchies deeper than maxDepth are truncated, not unbounded") {
    // A chain 1 -> 2 -> ... -> 12 is deeper than the expansion bound (8).
    val ids = (1L to 12L)
    val ctx = catalogWith(ids, ids.zip(ids.tail))
    val out = StandardProviders.LineageChildren.fetch(ctx, Map("artifact" -> "1"))
    val maxDepth = out.agg(max("depth")).collect()(0).getInt(0)
    assert(maxDepth == CatalogTables.LineageMaxDepth)
    assert(out.count() == CatalogTables.LineageMaxDepth + 1)
  }

  test("cyclic lineage terminates (the paper's 'arbitrary depths' safely)") {
    // 1 -> 2 -> 3 -> 1: without the depth bound this would never converge.
    val ctx = catalogWith(Seq(1L, 2L, 3L), Seq((1L, 2L), (2L, 3L), (3L, 1L)))
    val out = StandardProviders.LineageChildren.fetch(ctx, Map("artifact" -> "1"))
    // Bounded result: depth levels 0..maxDepth, one node per level.
    assert(out.count() == CatalogTables.LineageMaxDepth + 1)
  }

  test("diamond lineage reaches the join node once per path") {
    // 1 -> {2, 3} -> 4: node 4 appears under both parents, like a dashboard
    // embedding two visualizations of the same table.
    val ctx = catalogWith(Seq(1L, 2L, 3L, 4L),
      Seq((1L, 2L), (1L, 3L), (2L, 4L), (3L, 4L)))
    val out = StandardProviders.LineageChildren.fetch(ctx, Map("artifact" -> "1"))
    val byId = out.groupBy("artifact_id").count().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(byId(4L) == 2) // one row per parent path
    assert(byId(2L) == 1 && byId(3L) == 1)
  }

  test("fan-out lineage keeps parent attribution") {
    val ctx = catalogWith(Seq(1L, 2L, 3L), Seq((1L, 2L), (1L, 3L)))
    val out = StandardProviders.LineageChildren.fetch(ctx, Map("artifact" -> "1"))
    val parents = out.where(col("depth") === 1)
      .select("parent_id").collect().map(_.getLong(0)).toSet
    assert(parents == Set(1L))
  }

  private def walk(out: DataFrame): Set[(Long, Int)] =
    out.select("artifact_id", "depth").collect().map(r => r.getLong(0) -> r.getInt(1)).toSet

  test("an unknown root returns no rows") {
    val ctx = catalogWith(Seq(1L, 2L), Seq((1L, 2L)))
    assert(StandardProviders.LineageChildren.fetch(ctx, Map("artifact" -> "99")).count() == 0)
  }

  test("a fetch keeps its catalog when another catalog is fetched before it runs") {
    val a = catalogWith(Seq(1L, 2L), Seq((1L, 2L)))
    val b = catalogWith(Seq(1L, 3L, 4L), Seq((1L, 3L), (3L, 4L)))
    val outA = StandardProviders.LineageChildren.fetch(a, Map("artifact" -> "1"))
    val outB = StandardProviders.LineageChildren.fetch(b, Map("artifact" -> "1"))
    assert(walk(outA) == Set(1L -> 0, 2L -> 1))
    assert(walk(outB) == Set(1L -> 0, 3L -> 1, 4L -> 2))
  }
}
