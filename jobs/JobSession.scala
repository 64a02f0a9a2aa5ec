package repro.jobs

import org.apache.spark.SparkConf
import org.apache.spark.sql.SparkSession

/** The one SparkSession builder: job entrypoints, tests and benches all
  * take their session from here, so they run under one profile.
  *
  * Under spark-submit the master comes from the launcher (`--master` /
  * conf); when run directly (sbt runMain, IDE) we fall back to
  * `SPARK_MASTER`, then `local[*]`, so the jobs are usable in both
  * environments.
  *
  * The profile suits catalog-sized relations (at most ~10^5 rows), where a
  * query's time is mostly a fixed cost per stage (DESIGN.md, "Spark
  * session"). Broadcast joins (10 MB threshold) and AQE keep Spark's
  * defaults. A key the launcher sets (`spark-submit --conf`, or a
  * `-Dspark.*` property) keeps the launcher's value.
  */
object JobSession {

  /** Profile settings, set on every session this object builds unless the
    * launcher set the key. */
  val Profile: Map[String, String] = Map(
    // One reduce task per exchange instead of 200 nearly empty ones.
    "spark.sql.shuffle.partitions" -> "1",
    // Interpreted operators: each stage would otherwise compile its own
    // whole-stage-codegen class, which costs more than it saves on ~10^4 rows.
    "spark.sql.codegen.wholeStage" -> "false",
  )

  /** The profile entries whose keys `launcher` does not set. */
  def unsetIn(launcher: SparkConf): Map[String, String] =
    Profile.filter { case (key, _) => !launcher.contains(key) }

  def apply(appName: String): SparkSession = {
    // Builder options override the launcher's conf, so pass only the rest.
    val builder = SparkSession.builder().appName(appName).config(unsetIn(new SparkConf()))
    if (sys.props.get("spark.master").isEmpty)
      builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    val s = builder.getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
