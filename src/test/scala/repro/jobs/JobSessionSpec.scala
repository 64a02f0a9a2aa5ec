package repro.jobs

import org.apache.spark.SparkConf
import org.apache.spark.storage.StorageLevel
import org.apache.spark.sql.execution.{SortExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AQEShuffleReadExec, AdaptiveSparkPlanHelper, ShuffleQueryStageExec}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.execution.joins.SortMergeJoinExec
import repro.{SparkSpec, TestFixtures}
import repro.providers.Registry
import repro.search.QueryCompiler
import repro.spec.UseCaseSpec

class JobSessionSpec extends SparkSpec {

  private object Plans extends AdaptiveSparkPlanHelper

  /** Whether a join input is a shuffle written for that join. */
  private def shuffled(p: SparkPlan): Boolean = p match {
    case s: SortExec => shuffled(s.child)
    case r: AQEShuffleReadExec => shuffled(r.child)
    case _: ShuffleQueryStageExec | _: ShuffleExchangeLike => true
    case _ => false
  }

  test("the test session carries JobSession's profile and Spark's broadcast default") {
    JobSession.Profile.foreach { case (key, value) => assert(spark.conf.get(key) == value, key) }
    assert(spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "10485760b")
  }

  test("a key the launcher sets keeps the launcher's value") {
    val launcher = new SparkConf(false).set("spark.sql.shuffle.partitions", "8")
    assert(JobSession.unsetIn(launcher) == JobSession.Profile - "spark.sql.shuffle.partitions")
    assert(JobSession.unsetIn(new SparkConf(false)) == JobSession.Profile)
  }

  test("the flagship query shuffles no join input and writes one partition per shuffle") {
    val df = new QueryCompiler(UseCaseSpec.default, Registry.standard, TestFixtures.ctx)
      .search(UseCaseSpec.flagshipQuery).fold(e => fail(s"flagship failed: $e"), identity)
    df.collect()
    val plan = df.queryExecution.executedPlan
    // Joins broadcast their small side. A sort-merge join is left only where
    // both inputs already arrive partitioned on the key, so it shuffles nothing.
    val mergeInputs = Plans.collectWithSubqueries(plan) { case j: SortMergeJoinExec => j.children }
    assert(!mergeInputs.flatten.exists(shuffled), plan)
    // The catalog is cached as one partition each, so nothing is left to shuffle.
    val shuffles = Plans.collectWithSubqueries(plan) { case e: ShuffleExchangeLike => e }
    assert(shuffles.isEmpty, plan)
  }

  test("every relation the study context caches, the lineage closure included, is one partition") {
    val ctx = TestFixtures.ctx
    val cat = ctx.catalog
    val cached = cat.byName ++ Map(
      "enrichedArtifacts" -> cat.enrichedArtifacts, "lineageClosure" -> cat.lineageClosure,
      "teamUsage" -> cat.teamUsage, "joinEdgesById" -> ctx.joinEdgesById.get)
    cached.foreach { case (name, df) =>
      assert(df.storageLevel != StorageLevel.NONE, name)
      assert(df.rdd.getNumPartitions == 1, name)
    }
  }
}
