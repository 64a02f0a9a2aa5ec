package repro.ranking

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestFixtures}
import repro.spec.RankingWeight

class RankingSpec extends SparkSpec {
  import spark.implicits._

  private lazy val ctx = TestFixtures.ctx

  private val weights = Seq(RankingWeight("favorites", 4.3), RankingWeight("views", 1.5))

  test("score is the weighted sum of present fields") {
    val df = Seq((1L, 10L, 100L)).toDF("artifact_id", "favorites", "views")
    val s = Ranking.scored(df, weights).select("score").collect()(0).getDouble(0)
    assert(math.abs(s - (10 * 4.3 + 100 * 1.5)) < 1e-9)
  }

  test("absent fields contribute zero") {
    val df = Seq((1L, 10L)).toDF("artifact_id", "favorites")
    val s = Ranking.scored(df, weights).select("score").collect()(0).getDouble(0)
    assert(math.abs(s - 43.0) < 1e-9)
  }

  test("null field values are treated as zero") {
    val df = Seq((1L, Option.empty[Long], Option(100L)))
      .toDF("artifact_id", "favorites", "views")
    val s = Ranking.scored(df, weights).select("score").collect()(0).getDouble(0)
    assert(math.abs(s - 150.0) < 1e-9)
  }

  test("no matching weights means score zero, not failure") {
    val df = Seq((1L, "x")).toDF("artifact_id", "name")
    val s = Ranking.scored(df, weights).select("score").collect()(0).getDouble(0)
    assert(s == 0.0)
  }

  test("field matching is case-insensitive") {
    val df = Seq((1L, 2L)).toDF("artifact_id", "Favorites")
    val s = Ranking.scored(df, Seq(RankingWeight("favorites", 2.0)))
      .select("score").collect()(0).getDouble(0)
    assert(s == 4.0)
  }

  test("ranked orders descending with id tiebreak") {
    val df = Seq((3L, 1L), (1L, 5L), (2L, 5L)).toDF("artifact_id", "views")
    val got = Ranking.ranked(df, Seq(RankingWeight("views", 1.0)))
      .select("artifact_id").collect().map(_.getLong(0)).toSeq
    assert(got == Seq(1L, 2L, 3L))
  }

  test("negative weights demote") {
    val df = Seq((1L, 0L), (2L, 10L)).toDF("artifact_id", "age_days")
    val got = Ranking.ranked(df, Seq(RankingWeight("age_days", -1.0)))
      .select("artifact_id").collect().map(_.getLong(0)).toSeq
    assert(got == Seq(1L, 2L))
  }

  test("oracle: catalog-wide scores match DuckDB arithmetic") {
    val enriched = ctx.enrichedArtifacts
    val sparkDf = Ranking.scored(enriched,
      Seq(RankingWeight("favorites", 4.3), RankingWeight("views", 1.5),
        RankingWeight("endorsements", 10.0)))
      .select(col("artifact_id").cast("long").as("artifact_id"),
        round(col("score"), 4).as("score"))
    Oracle.assertEquivalent(sparkDf,
      """SELECT CAST(a.artifact_id AS BIGINT) AS artifact_id,
        |  ROUND(CAST(a.favorites AS DOUBLE) * 4.3
        |      + CAST(a.views AS DOUBLE) * 1.5
        |      + COALESCE(e.n, 0) * 10.0, 4) AS score
        |FROM artifacts a
        |LEFT JOIN (SELECT artifact_id, COUNT(*) AS n FROM badges
        |           WHERE badge = 'endorsed' GROUP BY artifact_id) e
        |  ON a.artifact_id = e.artifact_id""".stripMargin,
      "artifacts" -> ctx.catalog.artifacts, "badges" -> ctx.catalog.badges)
  }

  test("changing spec weights changes the order without code changes (§4.2)") {
    val enriched = ctx.enrichedArtifacts
    val byViews = Ranking.ranked(enriched, Seq(RankingWeight("views", 1.0)))
      .select("artifact_id").limit(5).collect().map(_.getLong(0)).toSeq
    val byAge = Ranking.ranked(enriched, Seq(RankingWeight("age_days", 1.0)))
      .select("artifact_id").limit(5).collect().map(_.getLong(0)).toSeq
    assert(byViews != byAge)
  }
}
