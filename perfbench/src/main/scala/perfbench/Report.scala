package perfbench

import java.nio.file.{Files, Paths}
import scala.collection.immutable.ListMap
import scala.io.Source
import org.apache.spark.sql.SparkSession
import repro.spec.Json

object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      s(math.min(s.size - 1, math.max(0, math.ceil(p / 100 * s.size).toInt - 1)))
    }

  /** The highest whole percentile with at least ten samples above it, if
    * the sample count allows one at or above the median.
    */
  def tailPercentile(n: Int): Option[Int] =
    if (n < 20) None else Some(math.floor(100.0 * (n - 10) / n).toInt)
}

/** Per-layer metrics of a traced run, named after the program's modules. */
object PerLayer {
  val Classes: Seq[String] = Seq("flagship", "conj", "disj_not", "call_text", "text", "scoped")
  val Reps: Seq[String] = Seq("tiles", "list", "hierarchy", "graph", "categories", "embedding")
  val Endpoints: Seq[String] = Seq("recents", "frequent", "owned_by", "badged", "badged_by",
    "of_type", "team_docs", "team_frequent", "lineage_children", "joinable", "embedding",
    "text_match")

  sealed trait Stat
  case object Ms extends Stat
  case object Us extends Stat
  case object Jobs extends Stat
  case object Stages extends Stat
  case object Shuffle extends Stat
  case object Sample extends Stat

  /** (metric, span or sample name, statistic, unit). */
  val table: Seq[(String, String, Stat, String)] = Seq(
    ("catalog.synth_ms", "catalog.synth", Ms, "ms"),
    ("extract.sketch_ms", "extract.sketch", Ms, "ms"),
    ("extract.sketch_jobs", "extract.sketch", Jobs, "count"),
    ("extract.joinability_ms", "extract.joinability", Ms, "ms"),
    ("extract.embedding_ms", "extract.embedding", Ms, "ms"),
    ("extract.embedding_jobs", "extract.embedding", Jobs, "count"),
  ) ++ Classes.flatMap(c => Seq(
    (s"search.parse_us.$c", s"search.parse.$c", Us, "us"),
    (s"search.build_ms.$c", s"search.build.$c", Ms, "ms"),
    (s"spark.plan_ms.$c", s"spark.plan.$c", Ms, "ms"),
    (s"spark.execute_ms.$c", s"spark.execute.$c", Ms, "ms"),
    (s"spark.jobs.$c", s"op.search.$c", Jobs, "count"),
    (s"spark.stages.$c", s"op.search.$c", Stages, "count"),
    (s"spark.shuffle_bytes.$c", s"op.search.$c", Shuffle, "bytes"),
    (s"spark.rows_scanned_per_hit.$c", s"spark.rows_scanned_per_hit.$c", Sample, "rows/hit"),
  )) ++ Seq(
    ("search.grammar_ms", "search.grammar", Ms, "ms"),
    ("spec.json_roundtrip_ms", "spec.json_roundtrip", Ms, "ms"),
    ("spec.validate_ms", "spec.validate", Ms, "ms"),
    ("ui.config_edit_us", "ui.config_edit", Us, "us"),
    ("ui.generate_ms", "ui.generate", Ms, "ms"),
    ("ui.team_home_ms", "ui.team_home", Ms, "ms"),
    ("search.prefix_parse_us", "search.prefix_parse", Us, "us"),
    ("search.suggest_key_us", "search.suggest_key", Us, "us"),
    ("search.suggest_values_ms", "search.suggest_values", Ms, "ms"),
    ("search.suggest_values_jobs", "search.suggest_values", Jobs, "count"),
    ("ui.context_ms", "ui.context", Ms, "ms"),
    ("ui.context_jobs", "ui.context", Jobs, "count"),
    ("ui.exploration_ms", "ui.exploration", Ms, "ms"),
    ("ui.exploration_jobs", "ui.exploration", Jobs, "count"),
  ) ++ Reps.flatMap(r => Seq(
    (s"ui.render_ms.$r", s"ui.render.$r", Ms, "ms"),
    (s"ui.render_jobs.$r", s"ui.render.$r", Jobs, "count"),
  )) ++ Endpoints.flatMap(e => Seq(
    (s"providers.fetch_ms.$e", s"providers.fetch.$e", Ms, "ms"),
    (s"providers.fetch_jobs.$e", s"providers.fetch.$e", Jobs, "count"),
  )) ++ Seq("explore", "overview", "keystroke", "reconfigure").map(o =>
    (s"spark.jobs_per_op.$o", s"op.$o", Jobs, "count"))

  /** Medians over every span (or sample) of each name. */
  def metrics(tracer: Tracer, samples: Map[String, Seq[Double]]): Seq[(String, Double, String)] = {
    val work = tracer.inclusiveWork()
    val byName = tracer.spans.groupBy(_.name)
    table.map { case (metric, name, stat, unit) =>
      val spans = byName.getOrElse(name, Nil)
      val xs: Seq[Double] = stat match {
        case Ms      => spans.map(_.ms)
        case Us      => spans.map(_.ms * 1000)
        case Jobs    => spans.map(s => work(s.id).jobs.toDouble)
        case Stages  => spans.map(s => work(s.id).stages.toDouble)
        case Shuffle => spans.map(s => work(s.id).shuffleBytes.toDouble)
        case Sample  => samples.getOrElse(name, Nil)
      }
      (metric, Stats.median(xs), unit)
    }
  }
}

/** The detail line and the trace file. */
object Report {
  private def num(d: Double): Json = Json.num(if (d.isNaN || d.isInfinite) -1 else d)

  private def memTotal: String =
    try Source.fromFile("/proc/meminfo").getLines().find(_.startsWith("MemTotal:"))
      .map(_.split("\\s+")(1) + " kB").getOrElse("unknown")
    catch { case _: Exception => "unknown" }

  def provenance(spark: SparkSession, a: Args, sf: Double): Json = {
    val conf = spark.conf
    Json.obj(
      "workload" -> Json.str(a.workload),
      "seed" -> num(a.seed.toDouble),
      "catalog" -> Json.str(s"sf=$sf seed=${Main.CatalogSeed}"),
      "nproc" -> num(Runtime.getRuntime.availableProcessors.toDouble),
      "mem_total" -> Json.str(memTotal),
      "spark_driver_mem" -> Json.str(sys.env.getOrElse("SPARK_DRIVER_MEM", "unset")),
      "max_heap_mb" -> num(Runtime.getRuntime.maxMemory / 1048576.0),
      "master" -> Json.str(spark.sparkContext.master),
      "spark" -> Json.str(spark.version),
      "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"),
      "autoBroadcastJoinThreshold" -> Json.str(conf.get("spark.sql.autoBroadcastJoinThreshold")),
      "shuffle_partitions" -> Json.str(conf.get("spark.sql.shuffle.partitions")),
      "adaptive" -> Json.str(conf.get("spark.sql.adaptive.enabled")),
      "commit" -> Json.str(sys.env.getOrElse("PERFBENCH_COMMIT", "unknown")),
    )
  }

  def detail(spark: SparkSession, a: Args, sf: Double, setupS: Double, units: Int,
             elapsed: Double, records: Seq[OpRecord], checks: Int, failedKeys: Set[String],
             flagshipOk: Option[Boolean], cachedMb: Double): Json = {
    val byKind = records.groupBy(_.kind).toSeq.sortBy(_._1).map { case (kind, rs) =>
      val ms = rs.map(_.ms)
      val tail = Stats.tailPercentile(ms.size)
      kind -> Json.JObject(ListMap(Seq(
        "n" -> num(ms.size.toDouble),
        "failed" -> num(rs.count(!_.ok).toDouble),
        "p50_ms" -> num(Stats.median(ms)),
        "max_ms" -> num(ms.max),
      ) ++ tail.map(p => s"p${p}_ms" -> num(Stats.percentile(ms, p))).toSeq: _*))
    }
    Json.obj(
      "provenance" -> provenance(spark, a, sf),
      "setup_s" -> num(setupS),
      "timed_units" -> num(units.toDouble),
      "timed_s" -> num(elapsed),
      "ops" -> Json.JObject(ListMap(byKind: _*)),
      "fail_ratio" -> num(if (records.isEmpty) 0 else records.count(!_.ok).toDouble / records.size),
      "cached_mb" -> num(cachedMb),
      "oracle_checks" -> num(checks.toDouble),
      "oracle_failures" -> Json.JArray(failedKeys.toVector.sorted.map(Json.str)),
      "flagship_is_2_3" -> flagshipOk.fold[Json](Json.JNull)(Json.bool),
    )
  }

  /** Spans with self time and Spark work, plus a per-name summary, written
    * to `<out>/trace-<workload>-<seed>.json`.
    */
  def writeTrace(a: Args, tracer: Tracer, detail: Json): Unit = {
    val work = tracer.inclusiveWork()
    val self = tracer.selfMs
    val spans = tracer.spans.sortBy(_.id)
    val summary = spans.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      name -> Json.obj(
        "n" -> num(ss.size.toDouble),
        "median_ms" -> num(Stats.median(ss.map(_.ms))),
        "median_self_ms" -> num(Stats.median(ss.map(s => self(s.id)))),
        "median_jobs" -> num(Stats.median(ss.map(s => work(s.id).jobs.toDouble))),
        "jobs_seen" -> Json.JArray(ss.map(s => work(s.id).jobs).distinct.sorted
          .map(j => num(j.toDouble)).toVector))
    }
    val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
    val out = Json.obj(
      "detail" -> detail,
      "summary" -> Json.JObject(ListMap(summary: _*)),
      "spans" -> Json.JArray(spans.map { s =>
        val w = work(s.id)
        Json.obj("id" -> num(s.id.toDouble), "name" -> Json.str(s.name),
          "parent" -> num(s.parent.toDouble), "op" -> num(s.op.toDouble),
          "start_ms" -> num((s.startNs - t0) / 1e6), "end_ms" -> num((s.endNs - t0) / 1e6),
          "self_ms" -> num(self(s.id)), "jobs" -> num(w.jobs.toDouble),
          "stages" -> num(w.stages.toDouble), "shuffle_bytes" -> num(w.shuffleBytes.toDouble))
      }.toVector))
    val dir = Paths.get(a.outDir)
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"trace-${a.workload}-${a.seed}.json"), out.pretty.getBytes("UTF-8"))
  }
}
