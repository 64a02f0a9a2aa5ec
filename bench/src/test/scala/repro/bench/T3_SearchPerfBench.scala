package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.functions._
import repro.providers.{Contracts, ProviderBinding, Registry}
import repro.search.{Query, QueryCompiler, QueryParser}
import repro.spec.{Surface, UseCaseSpec}

/** T3 -- metadata search execution: Catalyst-compiled vs app-layer baseline.
  *
  * The paper's UIs call metadata providers from application code and
  * combine results there (the status quo its framework replaces).
  * Humboldt-on-Spark instead *compiles* a whole query to one relational
  * plan. This bench runs five query classes over the SF=0.1 catalog
  * (~10k artifacts) both ways, asserts result equality, and reports
  * latency. The paper makes no latency claims (its evaluation is a user
  * study); the measured finding on this substrate -- recorded in
  * EXPERIMENTS.md -- is that at metadata-catalog scales both strategies
  * are interactive and comparable (Spark per-stage overhead dominates),
  * so the compiled path's value is architectural: one plan, exact set
  * semantics, scope pushdown, no per-element driver round-trips.
  *
  * Both columns time the same output: the query's set of artifact ids,
  * unordered. "Compiled" collects the distinct ids of `QueryCompiler.run`'s
  * relation, so Catalyst drops the score and the order by score, which no
  * id set needs; "app-layer" collects each element's distinct ids.
  */
class T3_SearchPerfBench extends AnyFunSuite {
  import BenchFixtures._

  private val spec = UseCaseSpec.default
  private val registry = Registry.standard

  /** The status-quo evaluator: fetch each query element independently,
    * collect artifact-id lists to the app layer, combine with in-memory
    * set algebra (what a UI against provider endpoints does).
    */
  private def naiveEval(q: Query): Set[Long] = {
    val ctx = ctx01
    val searchable = spec.providersOn(Surface.Search)
    def fetchIds(endpointSpec: repro.spec.MetadataProviderSpec,
                 inputs: Map[String, String]): Set[Long] = {
      val impl = ProviderBinding.resolve(endpointSpec, registry)
      Contracts.artifactIds(impl.representation, impl.fetch(ctx, inputs))
        .collect().map(_.getLong(0)).toSet
    }
    lazy val universe: Set[Long] =
      ctx.catalog.artifacts.select(col("artifact_id")).collect().map(_.getLong(0)).toSet
    q match {
      case Query.Text(w) =>
        val p = searchable.find(_.endpoint == "text_match").get
        fetchIds(p, Map("q" -> w))
      case Query.FieldPred(k, v) =>
        val p = searchable.find(_.searchKey.exists(_.equalsIgnoreCase(k))).get
        fetchIds(p, Map(p.inputs.head.name -> v))
      case Query.ProviderCall(n, args) =>
        val p = searchable.find(sp => QueryParser.normalize(sp.name) == n).get
        fetchIds(p, p.inputs.map(_.name).zip(args).toMap)
      case Query.And(l, r) => naiveEval(l) intersect naiveEval(r)
      case Query.Or(l, r)  => naiveEval(l) union naiveEval(r)
      case Query.Not(i)    => universe diff naiveEval(i)
    }
  }

  test("T3: search latency and equality table") {
    val ctx = ctx01
    val compiler = new QueryCompiler(spec, registry, ctx)
    val parser = QueryParser.fromSpec(spec)

    val queries = Seq(
      "flagship (4 preds + text)" -> UseCaseSpec.flagshipQuery,
      "conjunctive (2 preds)" -> "type: table & badged: endorsed",
      "disjunct + negation" -> "(badged: warning | badged: deprecated) & ! owned by: 'Alex'",
      "provider call + text" -> ":recent_documents() & 'revenue'",
      "free text only" -> "'sales'",
    )

    banner("T3 -- Search execution over SF=0.1 catalog " +
      s"(${ctx.catalog.artifacts.count()} artifacts): compiled vs app-layer")
    println(f"${"query class"}%-28s${"hits"}%-8s${"compiled ms"}%-14s${"app-layer ms"}%-14s${"speedup"}%s")

    val rows = queries.map { case (label, text) =>
      val ast = parser.parse(text).fold(e => fail(s"$label: $e"), identity)

      var compiledIds: Set[Long] = Set.empty
      val compiledMs = timedMedianMs() {
        compiledIds = compiler.run(ast)
          .select("artifact_id").distinct().collect().map(_.getLong(0)).toSet
      }
      var naiveIds: Set[Long] = Set.empty
      val naiveMs = timedMedianMs() { naiveIds = naiveEval(ast) }

      assert(compiledIds == naiveIds,
        s"$label: compiled and app-layer disagree " +
          s"(only-compiled=${(compiledIds -- naiveIds).take(3)}, " +
          s"only-naive=${(naiveIds -- compiledIds).take(3)})")

      val speedup = naiveMs / compiledMs
      println(f"$label%-28s${compiledIds.size}%-8d$compiledMs%-14.0f$naiveMs%-14.0f$speedup%.2fx")
      (label, compiledMs, naiveMs, compiledIds.size)
    }

    // Shape: the flagship query finds exactly the pinned answer set, every
    // class returns something, and everything stays interactive.
    val (_, _, _, fHits) = rows.head
    assert(fHits == 2, "flagship query must return the two pinned sales tables")
    rows.foreach { case (l, cMs, nMs, hits) =>
      assert(hits > 0, s"$l returned nothing")
      assert(cMs < 15000, f"$l compiled not interactive: $cMs%.0f ms")
      assert(nMs < 15000, f"$l app-layer not interactive: $nMs%.0f ms")
    }
  }

  test("T3b: filter scope does not cost more than global search") {
    val ctx = ctx01
    val compiler = new QueryCompiler(spec, registry, ctx)
    val scope = ctx.catalog.artifacts
      .where(col("artifact_type") === "table").select("artifact_id")

    val globalMs = timedMedianMs() {
      compiler.search("badged: endorsed").toOption.get.collect()
    }
    val scopedMs = timedMedianMs() {
      compiler.search("badged: endorsed", Some(scope)).toOption.get.collect()
    }
    println(f"global search: $globalMs%.0f ms, view-scoped filter: $scopedMs%.0f ms")
    assert(scopedMs < globalMs * 2.5, "filter scoping should not blow up latency")
  }
}
