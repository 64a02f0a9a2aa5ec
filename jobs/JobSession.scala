package repro.jobs

import org.apache.spark.SparkConf
import org.apache.spark.sql.SparkSession
import repro.providers.{ProviderBinding, Registry}
import repro.spec.HumboldtSpec

/** The one SparkSession builder: job entrypoints, tests and benches all
  * take their session from here, so they run under one profile. Job
  * entrypoints also load a spec file through [[specOrExit]].
  *
  * Under spark-submit the master comes from the launcher (`--master` /
  * conf); when run directly (sbt runMain, IDE) we fall back to
  * `SPARK_MASTER`, then `local[*]`, so the jobs are usable in both
  * environments.
  *
  * The profile suits catalog-sized relations (at most ~10^5 rows), where a
  * query's time is mostly a fixed cost per query and per job rather than
  * task work (DESIGN.md, "Spark session"). Broadcast joins keep Spark's
  * 10 MB threshold; AQE is off; the codegen cache holds 1000 generated
  * classes instead of 100. A key the launcher sets (`spark-submit
  * --conf`, or a `-Dspark.*` property) keeps the launcher's value.
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
    // Every cached catalog relation is one partition, so the static plan has
    // nothing left for AQE to coalesce or skew-split; re-planning at each
    // stage boundary would only add driver time and jobs to every query.
    "spark.sql.adaptive.enabled" -> "false",
    // Room for every class a session generates: at Spark's default of 100
    // entries the explore workload evicts and recompiles classes on every
    // interaction (DESIGN.md, "Spark session").
    "spark.sql.codegen.cache.maxEntries" -> "1000",
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

  /** The spec file at `path`, bound to the standard registry; one that does
    * not load or bind prints `bad spec <path>: <error>` and exits 2. */
  def specOrExit(path: String): HumboldtSpec =
    HumboldtSpec.read(path).flatMap { spec =>
      val errors = ProviderBinding.validate(spec, Registry.standard)
      if (errors.isEmpty) Right(spec) else Left(errors.mkString("; "))
    }.fold(e => { println(s"bad spec $path: $e"); sys.exit(2) }, identity)

  /** Argument `i` read by `read`, `default` when absent, or [[usageExit]] when it does not read. */
  def argOrExit[A](args: Array[String], i: Int, default: A, usage: String)(read: String => A): A =
    args.lift(i).fold(default)(a => scala.util.Try(read(a)).getOrElse(usageExit(s"bad argument '$a'", usage)))

  /** Prints `problem` and `usage` and exits 2, as a job does for arguments it cannot read. */
  def usageExit(problem: String, usage: String): Nothing = { println(s"$problem; $usage"); sys.exit(2) }
}
