package perfbench

import java.nio.file.Paths
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import repro.catalog.{CatalogSynth, LakeSynth}
import repro.extract.{ColumnSketches, Embedding, Joinability}
import repro.jobs.JobSession
import repro.providers.{ProviderBinding, ProviderContext, Registry}
import repro.search.{QueryParser, Suggest}
import repro.spec.{HumboldtSpec, Json, Surface, UseCaseSpec}
import repro.study.SimulatedStudy
import repro.ui.{Config, GeneratedTab, Interface, InterfaceModel}

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      sf: Option[Double], corrupt: Boolean, outDir: String)

/** One timed operation of the closed loop. */
final case class OpRecord(kind: String, cls: String, startNs: Long, endNs: Long, ok: Boolean,
                          key: String) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Entry point: `perfbench.Main --workload <search|explore> --seed <n>
  * --seconds <s> --trace <0|1> [--sf <x>] [--corrupt 1] [--out <dir>]`.
  * Prints a detail line, then the result line as the last line.
  */
object Main {
  /** The catalog is fixed; the workload seed only drives the script. */
  val CatalogSeed = 42L

  def main(argv: Array[String]): Unit = {
    val kv = argv.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val a = Args(
      workload = kv("workload"), seed = kv("seed").toLong, seconds = kv("seconds").toDouble,
      trace = kv.getOrElse("trace", "0") == "1", sf = kv.get("sf").map(_.toDouble),
      corrupt = kv.getOrElse("corrupt", "0") == "1", outDir = kv.getOrElse("out", "."))
    require(Set("search", "explore")(a.workload), s"unknown workload '${a.workload}'")
    val spark = JobSession(s"perfbench-${a.workload}")
    try {
      val (detail, result) = new Run(spark, a).execute()
      println(detail.render)
      println(result.render)
    } finally spark.stop()
  }
}

private object Plans extends AdaptiveSparkPlanHelper {
  /** Rows the executed plan's leaf (scan) nodes produced. */
  def scannedRows(plan: SparkPlan): Long =
    collectLeaves(plan).flatMap(_.metrics.get("numOutputRows")).map(_.value).sum
}

final class Run(spark: SparkSession, a: Args) {
  private val registry = Registry.standard
  private val base = UseCaseSpec.default
  private val sf = a.sf.getOrElse(0.1)
  private val tracer = new Tracer(spark, a.trace)
  private val ops = mutable.ArrayBuffer.empty[OpRecord]
  private val reference = mutable.Map.empty[String, String]
  private val samples = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private val ResultCols = Seq("artifact_id", "name", "artifact_type", "score")
  private val Home = "A Team"

  private var ctx: ProviderContext = _
  private var gate: Gate = _
  private var corruptNext = false

  private val born = System.nanoTime()
  private def log(msg: String): Unit =
    Console.err.println(f"[perfbench] ${(System.nanoTime() - born) / 1e9}%6.1f s  $msg")

  // ---- set-up ---------------------------------------------------------------

  private def setup(): InterfaceModel = {
    tracer.newOp()
    ctx =
      if (!a.trace) {
        val c = SimulatedStudy.context(spark, sf, Main.CatalogSeed)
        c.catalog.byName.values.foreach(_.count())
        c.enrichedArtifacts.count()
        c
      } else {
        // The same steps as SimulatedStudy.context, one span each.
        val catalog = tracer.span("catalog.synth") {
          val c = CatalogSynth(spark, sf, Main.CatalogSeed).cached()
          c.byName.values.foreach(_.count())
          c
        }
        val sketches = tracer.span("extract.sketch")(
          ColumnSketches.sketchAll(LakeSynth.tables(spark), k = 32))
        val edges = tracer.span("extract.joinability")(
          Joinability.edgesDf(spark, Joinability.edges(sketches, threshold = 0.5)))
        val coords = tracer.span("extract.embedding")(Embedding.coordinates(catalog))
        val c = ProviderContext(spark, catalog, Some(edges), Some(coords))
        tracer.span("catalog.enrich")(c.enrichedArtifacts.count())
        c
      }
    tracer.span("ui.generate")(Interface.generate(base, registry, ctx))
  }

  // ---- timing and checking ---------------------------------------------------

  /** Time one operation. `body` returns its value, the result key, the
    * canonical result compared between repetitions of the key, and the
    * DuckDB checks of its first occurrence (built after the clock stops).
    */
  private def timed[A](kind: String, cls: String)(
      body: => (A, String, String, () => Seq[Check])): Option[A] = {
    tracer.newOp()
    val root = if (kind == "search") s"op.search.$cls" else s"op.$kind"
    val t0 = System.nanoTime()
    val outcome =
      try Right(tracer.span(root)(body))
      catch { case NonFatal(e) => Left(e) }
    val t1 = System.nanoTime()
    val ms = (t1 - t0) / 1e6
    outcome match {
      case Left(e) =>
        Console.err.println(s"[perfbench] $kind/$cls failed: $e")
        ops += OpRecord(kind, cls, t0, t1, ok = false, key = s"$kind|error")
        None
      case Right((value, key, canonical, checks)) =>
        val ok = reference.get(key) match {
          case None =>
            reference(key) = canonical
            val cs = checks()
            // Self-test hook: hand the gate a wrong result for the first
            // timed op that brings a new check.
            val handed =
              if (corruptNext && cs.nonEmpty) {
                corruptNext = false
                cs.head.copy(rows = cs.head.rows :+ "-1") +: cs.tail
              } else cs
            handed.foreach(gate.add)
            true
          case Some(r) =>
            if (r != canonical) {
              val diff = r.split("\n").zipAll(canonical.split("\n"), "", "").find(p => p._1 != p._2)
              log(s"$key differs from its first result: $diff")
            }
            r == canonical
        }
        ops += OpRecord(kind, cls, t0, t1, ok, key)
        log(f"$kind%-11s $cls%-10s $ms%9.1f ms ${if (ok) "" else "MISMATCH "}${key.take(80)}")
        Some(value)
    }
  }

  private def sample(name: String, v: Double): Unit =
    if (tracer.active) samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v

  private def specKey(spec: HumboldtSpec): String =
    Integer.toHexString(HumboldtSpec.toJson(spec).render.hashCode)

  // ---- operations ------------------------------------------------------------

  private def search(spec: HumboldtSpec, parser: QueryParser, model: InterfaceModel,
                     cls: String, text: String, scope: Option[GeneratedTab]): Unit = {
    val key = s"search|${specKey(spec)}|${scope.map(_.provider.name).getOrElse("")}|$text"
    timed("search", cls) {
      val (rows, traced): (Array[Row], Option[DataFrame]) =
        if (!tracer.active) {
          val res = scope.fold(model.compiler.search(text))(t => Interface.filterView(model, t.view, text))
          (res.fold(e => throw new IllegalStateException(e), identity)
            .selectExpr(ResultCols: _*).collect(), None)
        } else {
          val q = tracer.span(s"search.parse.$cls")(parser.parse(text))
            .fold(e => throw new IllegalStateException(e), identity)
          val df = tracer.span(s"search.build.$cls")(
            model.compiler.run(q, scope.map(_.view.artifactIds)).selectExpr(ResultCols: _*))
          tracer.span(s"spark.plan.$cls")(df.queryExecution.executedPlan)
          (tracer.span(s"spark.execute.$cls")(df.collect()), Some(df))
        }
      val canonical = rows.map(r => s"${r.getLong(0)}|${r.getString(1)}|${r.getString(2)}|${r.getDouble(3)}")
        .mkString("\n")
      ((traced, rows.length), key, canonical, () => Seq(Check(key, rows.map(_.getLong(0).toString).toSeq,
        Gate.searchSql(text, spec, scope.map(t => Gate.endpointPred(t.provider.endpoint, t.inputs))))))
    }.foreach { case (traced, hits) =>
      traced.foreach(df => sample(s"spark.rows_scanned_per_hit.$cls",
        Plans.scannedRows(df.queryExecution.executedPlan).toDouble / math.max(1, hits)))
    }
  }

  private def renderAll(tabs: Seq[GeneratedTab]): Seq[RenderedTab] =
    tabs.map(t => tracer.span(s"ui.render.${t.provider.representation.name}")(Ui.render(t)))

  private def tabsResult(key: String, rendered: Seq[RenderedTab]) =
    (rendered.map(_.canonical).mkString("\n"),
      () => rendered.flatMap(t => Ui.checks(s"$key|${t.provider}", t)))

  /** Traced runs only: calls made for the per-layer figures alone. They run
    * after the operation's clock has stopped, as an operation of their own,
    * so the spans and Spark jobs of `op.*` hold only what the program does.
    */
  private def untimed(body: => Unit): Unit = if (tracer.active) { tracer.newOp(); body }

  private val refetched = mutable.Set.empty[String]

  /** Re-invoke a provider with the bound inputs of the first tab that shows
    * it. Doing so for every tab made a traced explore run take 130 s, close
    * to the 180 s a run may take.
    */
  private def refetch(tabs: Seq[RenderedTab]): Unit = untimed {
    tabs.filter(t => refetched.add(t.endpoint)).foreach(t => fetch(t.endpoint, t.inputs))
  }

  private def fetch(endpoint: String, inputs: Map[String, String]): Unit =
    tracer.span(s"providers.fetch.$endpoint")(
      registry.get(endpoint).get.fetch(ctx, inputs).limit(Ui.PageSize).collect())

  private def overview(model: InterfaceModel): Unit = {
    val key = s"overview|${specKey(model.spec)}"
    timed("overview", "overview") {
      val rendered = renderAll(model.tabs)
      val (c, checks) = tabsResult(key, rendered)
      (rendered, key, c, checks)
    }.foreach(refetch)
  }

  private def explore(spec: HumboldtSpec, id: Long): Unit = {
    val key = s"explore|${specKey(spec)}|$id"
    timed("explore", "explore") {
      val tabs = tracer.span("ui.exploration")(Interface.exploration(spec, registry, ctx, id))
      val rendered = renderAll(tabs)
      val (c, checks) = tabsResult(key, rendered)
      (rendered, key, c, checks)
    }.foreach { rendered =>
      untimed(tracer.span("ui.context")(Interface.explorationContext(ctx, id)))
      refetch(rendered)
    }
  }

  /** One admin edit: spec op, JSON round trip, regeneration, and the team
    * home page rendered under the new spec.
    */
  private def reconfigure(name: String, edit: () => HumboldtSpec): Option[(InterfaceModel, QueryParser)] =
    timed("reconfigure", name) {
      val edited = tracer.span("ui.config_edit")(edit())
      val spec = tracer.span("spec.json_roundtrip")(
        HumboldtSpec.fromJsonString(HumboldtSpec.toJson(edited).pretty))
        .fold(e => throw new IllegalStateException(e), identity)
      require(spec == edited, "spec JSON round trip changed the spec")
      val parser = tracer.span("search.grammar")(QueryParser.fromSpec(spec))
      val model = tracer.span("ui.generate")(Interface.generate(spec, registry, ctx))
      val home = tracer.span("ui.team_home")(
        renderAll(Interface.teamHomePage(spec, registry, ctx, Home)))
      require(home.map(_.provider) == Config.teamHomePage(spec, Home),
        "team home page does not render the configured providers")
      val key = s"reconfigure|${specKey(spec)}"
      val (c, checks) = tabsResult(key, home)
      ((model, parser, home), key, c, checks)
    }.map { case (model, parser, home) =>
      untimed(tracer.span("spec.validate")(ProviderBinding.validate(model.spec, registry)))
      refetch(home)
      (model, parser)
    }

  /** One keystroke: parse the prefix typed so far, then autocomplete at
    * the cursor: a value after `key:`, a provider after `:`, else a key.
    */
  private def keystroke(spec: HumboldtSpec, parser: QueryParser, suggest: Suggest,
                        prefix: String): Unit = {
    val keys = spec.providersOn(Surface.Search).flatMap(_.searchKey).sortBy(-_.length)
    val segment = prefix.split("[&|(!]", -1).last.replaceAll("^\\s+", "")
    val valued = keys.iterator.map(k => k -> s"(?i)^\\Q$k\\E\\s*:\\s*(.*)$$".r)
      .flatMap { case (k, re) => re.findFirstMatchIn(segment).map(m => k -> m.group(1)) }
      .toSeq.headOption
    val kind = valued match {
      case Some((_, v)) if !(v.startsWith("'") && v.length > 1 && v.endsWith("'")) => "values"
      case _ if segment.startsWith(":") => "call"
      case _ => "key"
    }
    val key = s"keystroke|${specKey(spec)}|$prefix"
    timed("keystroke", kind) {
      tracer.span("search.prefix_parse")(parser.parse(prefix))
      kind match {
        case "values" =>
          val (k, raw) = valued.get
          val v = raw.stripPrefix("'")
          val got = tracer.span("search.suggest_values")(suggest.valuesFor(k, v))
          val inputType = spec.providersOn(Surface.Search)
            .find(_.searchKey.exists(_.equalsIgnoreCase(k))).get.inputs.head.inputType
          ((), key, got.mkString("\n"), () => Seq(Check(key, got, Gate.valuesSql(inputType, v, 20))))
        case "call" =>
          val got = tracer.span("search.suggest_call")(suggest.completeProviderCall(segment))
          ((), key, got.mkString("\n"), () => Nil)
        case _ =>
          val got = tracer.span("search.suggest_key")(suggest.completeKey(segment))
          ((), key, got.mkString("\n"), () => Nil)
      }
    }
  }

  // ---- workloads ---------------------------------------------------------------

  /** One unit of the search workload: one query of each of the six
    * classes, in a fixed order. The seed draws the values when the unit is
    * made, so running the unit again repeats the same inputs.
    */
  private def searchUnit(model: InterfaceModel, script: Script): () => Unit = {
    val parser = QueryParser.fromSpec(base)
    val queries = Script.SearchClasses.map {
      case "scoped" => ("scoped", script.queryText("conj"), Some(script.pick(model.tabs.toIndexedSeq)))
      case cls => (cls, script.queryText(cls), None)
    }
    () => queries.foreach { case (cls, text, scope) => search(base, parser, model, cls, text, scope) }
  }

  /** Admin edit, typing the query with autocomplete, submitting it. */
  private def author(edit: (String, () => HumboldtSpec, String)): Unit = {
    val (name, edited, query) = edit
    reconfigure(name, edited).foreach { case (model, parser) =>
      Script.keystrokes(query).foreach(keystroke(model.spec, parser, model.suggest, _))
      search(model.spec, parser, model, "typed", query, None)
    }
  }

  /** One unit of the explore workload, a session: open the discovery home,
    * click AIRLINES and a visualization (Zipf by views), then make an admin
    * edit, type a query and submit it.
    */
  private def exploreUnit(model: InterfaceModel, script: Script): () => Unit = {
    val clicks = Seq(Script.Airlines, script.clickedVisualization())
    val edit = script.edit(base)
    () => {
      overview(model)
      clicks.foreach(explore(base, _))
      author(edit)
    }
  }

  /** Traced runs: every layer is reported on every workload. Operations
    * this workload's loop did not reach run once here, tagged as probes.
    */
  private def probes(model: InterfaceModel, script: Script): Unit = {
    def seen(span: String) = tracer.spans.exists(_.name == span)
    val parser = QueryParser.fromSpec(base)
    Script.SearchClasses.filterNot(c => seen(s"op.search.$c")).foreach {
      case "scoped" => search(base, parser, model, "scoped", script.queryText("conj"), Some(model.tabs.head))
      case cls      => search(base, parser, model, cls, script.queryText(cls), None)
    }
    if (!seen("op.overview")) overview(model)
    if (!seen("ui.render.graph") || !seen("ui.render.hierarchy")) explore(base, Script.Airlines)
    if (!seen("search.suggest_values") || !seen("op.reconfigure")) author(script.edit(base))
    val defaults = Map(
      "recents" -> Map.empty[String, String], "frequent" -> Map.empty[String, String],
      "embedding" -> Map.empty[String, String], "owned_by" -> Map("user" -> "Alex"),
      "badged" -> Map("badge" -> "endorsed"), "badged_by" -> Map("user" -> "Mike"),
      "of_type" -> Map("artifact_type" -> "table"), "team_docs" -> Map("team" -> Home),
      "team_frequent" -> Map("team" -> Home), "lineage_children" -> Map("artifact" -> "1"),
      "joinable" -> Map("table" -> "AIRLINES"), "text_match" -> Map("q" -> "sales"))
    tracer.newOp()
    defaults.toSeq.sortBy(_._1).filterNot(e => seen(s"providers.fetch.${e._1}"))
      .foreach { case (ep, in) => fetch(ep, in) }
  }

  // ---- the run -----------------------------------------------------------------

  def execute(): (Json, Json) = {
    val t0 = System.nanoTime()
    val model = setup()
    val setupS = (System.nanoTime() - t0) / 1e9
    log(f"set-up $setupS%.1f s")
    gate = new Gate(spark, ctx, searchOnly = a.workload == "search" && !a.trace,
      Paths.get(a.outDir).resolve(s"oracle-${a.workload}-${a.seed}"))

    tracer.active = false
    val script = new Script(a.seed, Vocabulary(ctx))
    log("vocabulary read")
    def draw(): () => Unit =
      if (a.workload == "search") searchUnit(model, script) else exploreUnit(model, script)
    def runUnit(unit: () => Unit): Vector[OpRecord] = {
      val from = ops.size
      unit()
      ops.drop(from).toVector
    }
    // An untimed warm-up with fixed inputs, the same for every seed: the
    // flagship query for search; the AIRLINES click and the discovery home
    // for explore, their costliest first uses. A whole warm-up unit would
    // not fit the time budget. Then a number of timed units fixed
    // by --seconds alone, so what a run measures does not depend on how fast
    // the code or the machine is. A traced run times one unit untraced and
    // then the same unit traced; the ratio of their rates is the tracing
    // overhead.
    val warmup = runUnit(() =>
      if (a.workload == "search")
        search(base, QueryParser.fromSpec(base), model, "flagship", UseCaseSpec.flagshipQuery, None)
      else { explore(base, Script.Airlines); overview(model) })
    log(f"warm-up: ${warmup.map(_.ms).sum}%.1f ms")
    corruptNext = a.corrupt
    val units =
      if (a.trace) {
        val unit = draw()
        val untraced = runUnit(unit)
        tracer.active = true
        Vector(untraced, runUnit(unit))
      } else Vector.fill(Run.timedUnits(a.workload, a.seconds))(runUnit(draw()))
    // Time is the operations' own time: calls made only for the traced
    // figures fall between operations and are not counted. One typed query
    // is dozens of keystrokes, most of them under a millisecond; counting
    // them would make the rate jump with the length of the typed query, so
    // they add time only.
    def seconds(rs: Seq[OpRecord]): Double = rs.map(_.ms).sum / 1e3
    def rate(rs: Seq[OpRecord]): Double = rs.count(_.kind != "keystroke") / seconds(rs)
    val timedOps = units.flatten
    val elapsed = seconds(timedOps)

    log(f"timed phase: ${units.size} units, ${timedOps.size} ops in $elapsed%.1f s")
    if (a.trace) { tracer.active = true; probes(model, script); log("probes done") }
    val failedKeys = gate.failures()
    log(s"oracle: ${gate.size} checks, ${failedKeys.size} failed")
    def checked(rs: Seq[OpRecord]) = rs.map(o => if (failedKeys(o.key)) o.copy(ok = false) else o)
    val records = checked(timedOps)
    val failed = records.count(!_.ok)
    // Warm-up and probe results are checked by the gate too, though they are not timed.
    val untimedFailed = checked(ops.toSeq).count(!_.ok) - failed
    val cachedMb = spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6
    val primary = if (a.workload == "search") "search" else "explore"
    val primaryMs = records.filter(_.kind == primary).map(_.ms)
    // The flagship query, first in every search unit, must return exactly {2, 3}.
    val flagshipOk = reference.get(s"search|${specKey(base)}||${UseCaseSpec.flagshipQuery}")
      .map(_.split("\n").filter(_.nonEmpty).map(_.takeWhile(_ != '|').toLong).toSet == Set(2L, 3L))
    if (flagshipOk.contains(false)) log("flagship query did not return exactly {2, 3}")
    val correct = flagshipOk.forall(identity) && failed == 0 && untimedFailed == 0 &&
      failedKeys.isEmpty && primaryMs.nonEmpty

    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) Seq(
        ("setup_s", setupS, "s"),
        // A run holds only a handful of primary interactions, of a fixed
        // mix; their mean is steadier from run to run than their median.
        ("interaction_mean_ms", primaryMs.sum / primaryMs.size, "ms"),
        ("ops_per_s", rate(timedOps), "1/s"),
        ("cached_mb", cachedMb, "MB"))
      else {
        PerLayer.metrics(tracer, samples.view.mapValues(_.toSeq).toMap) :+
          (("trace.overhead_ratio", rate(units(1)) / rate(units(0)), "ratio"))
      }

    val detail = Report.detail(spark, a, sf, setupS, units.size, elapsed, records, gate.size,
      failedKeys, flagshipOk, cachedMb)
    if (a.trace) Report.writeTrace(a, tracer, detail)
    val result = Json.obj(
      "correct" -> Json.bool(correct),
      "attempted" -> Json.num(records.size.toDouble),
      "failed" -> Json.num(failed.toDouble),
      "metrics" -> Json.JObject(scala.collection.immutable.ListMap(metrics.map { case (n, v, u) =>
        n -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u))
      }: _*)))
    (detail, result)
  }
}

object Run {
  /** About how long one unit takes on a 4-vCPU machine at this commit, in
    * seconds.
    */
  private val NominalUnitS = Map("search" -> 11.0, "explore" -> 15.0)

  /** Timed units of an untraced run: --seconds worth of nominal units, at
    * least one. The count never depends on measured speed.
    */
  def timedUnits(workload: String, seconds: Double): Int =
    math.max(1, math.round(seconds / NominalUnitS(workload)).toInt)
}
