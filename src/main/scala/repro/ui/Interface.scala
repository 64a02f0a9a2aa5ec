package repro.ui

import java.util.concurrent.{Callable, ExecutionException, Executors}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.providers.{ProviderBinding, ProviderContext, Registry}
import repro.search.{QueryCompiler, Suggest}
import repro.spec._

/** One generated tab: a provider, the inputs it was invoked with, and its
  * constructed view (paper Figure 7 B/C: "Overviews based on the available
  * metadata are organized into tabs").
  */
final case class GeneratedTab(provider: MetadataProviderSpec,
                              inputs: Map[String, String],
                              view: ViewModel)

/** The whole generated data discovery interface for one spec: overview
  * tabs, the search surface, and the exploration generator.
  */
final case class InterfaceModel(
    spec: HumboldtSpec,
    tabs: Seq[GeneratedTab],
    searchKeys: Seq[String],
    compiler: QueryCompiler,
    suggest: Suggest,
)

/** Interface construction (paper §5): overviews, exploration, and search
  * are all derived from the specification — no provider-specific UI code.
  */
object Interface {

  /** Generate the full interface model for a spec. Fails fast if the spec
    * does not validate against the registry.
    */
  def generate(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext): InterfaceModel = {
    val errors = ProviderBinding.validate(spec, registry)
    require(errors.isEmpty, s"invalid spec: ${errors.mkString("; ")}")
    InterfaceModel(
      spec = spec,
      tabs = overviews(spec, registry, ctx),
      searchKeys = spec.providersOn(Surface.Search).flatMap(_.searchKey),
      compiler = new QueryCompiler(spec, registry, ctx),
      suggest = new Suggest(spec, ctx),
    )
  }

  /** Overview tabs (§5.1): every overview-visible provider whose required
    * inputs are all satisfiable *without* a selection — i.e. none, since
    * overviews are entry points. Providers needing input wait for
    * exploration ("new UI elements can be loaded when input values become
    * available based on selected data artifacts", §3.2).
    */
  def overviews(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext): Seq[GeneratedTab] =
    spec.providersOn(Surface.Overview)
      .filter(_.requiredInputs.isEmpty)
      .map(p => tab(spec, registry, ctx, p, Map.empty))

  /** The metadata values of one selected artifact, keyed by input *type* —
    * what exploration uses to bind provider inputs (§5.2: "Whenever a user
    * interacts with a data element, the metadata of this element can be
    * used to inform and surface more metadata providers"). A lookup in the
    * catalog's value dictionary: it starts no Spark job.
    */
  def explorationContext(ctx: ProviderContext, artifactId: Long): Map[String, String] =
    ctx.catalog.valueDictionary.context(artifactId)

  /** Exploration tabs for a selected artifact (§5.2, §6.3): every
    * exploration-visible provider whose required inputs can all be bound
    * from the artifact's metadata. Optional inputs bind opportunistically.
    *
    * The tabs are built and loaded concurrently ("new UI elements can be
    * loaded when input values become available", §3.2), on a pool of
    * `min(tabs, defaultParallelism)` threads created for this call, so its
    * threads inherit the caller's Spark local properties (job group,
    * tracing properties). A tab's exception is rethrown as itself. See
    * [[load]] for what a loaded view holds.
    */
  def exploration(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext,
                  artifactId: Long): Seq[GeneratedTab] = {
    val context = explorationContext(ctx, artifactId)
    val bound = spec.providersOn(Surface.Exploration).flatMap { p =>
      val inputs = p.inputs.flatMap(in => context.get(in.inputType).map(in.name -> _)).toMap
      val satisfied = p.requiredInputs.forall(in => inputs.contains(in.name))
      if (satisfied && p.inputs.nonEmpty) Some(p -> inputs) else None
    }
    concurrently(ctx.spark, bound.map { case (p, inputs) => () => {
      val t = tab(spec, registry, ctx, p, inputs)
      t.copy(view = load(ctx.spark, t.view))
    }})
  }

  /** Runs `tasks` on a pool of `min(tasks, defaultParallelism)` threads made
    * by the calling thread, and returns their results in order. Every pool
    * thread has ended when this returns or throws.
    */
  private def concurrently[A](spark: SparkSession, tasks: Seq[() => A]): Seq[A] = {
    if (tasks.isEmpty) return Nil
    val threads = mutable.ArrayBuffer.empty[Thread]
    val pool = Executors.newFixedThreadPool(
      math.min(tasks.size, spark.sparkContext.defaultParallelism),
      (r: Runnable) => threads.synchronized {
        val t = new Thread(r, s"exploration-tab-${threads.size}")
        threads += t
        t
      })
    try pool.invokeAll(tasks.map(t => (() => t()): Callable[A]).asJava).asScala.toSeq.map { f =>
      try f.get() catch { case e: ExecutionException => throw e.getCause }
    } finally {
      pool.shutdown()
      threads.synchronized(threads.toList).foreach(_.join())
    }
  }

  /** The view with each frame a screen reads collected once and replaced
    * by a local relation over the rows, so a later `limit(n).collect()` is
    * answered on the driver (Catalyst's `ConvertToLocalRelation`) and
    * starts no Spark job. Overview and team home tabs are not loaded: they span the catalog
    * (Popular is every artifact, 10^5 rows at SF 1.0).
    */
  private def load(spark: SparkSession, view: ViewModel): ViewModel = {
    def local(df: DataFrame): DataFrame = spark.createDataFrame(df.collect().toSeq.asJava, df.schema)
    view match {
      case v: TilesView          => v.copy(data = local(v.data))
      case v: ListView           => v.copy(data = local(v.data))
      case v: HierarchyView      => v.copy(data = local(v.data))
      case v: GraphView          => v.copy(edges = local(v.edges))
      case v: CategoriesView     => v.copy(rollup = local(v.rollup), members = local(v.members))
      case v: EmbeddingViewModel => v.copy(points = local(v.points))
    }
  }

  /** Team home page tabs from custom content (§4.3, Listing 2): the
    * `team_home_pages` entry maps a team to an ordered provider list; each
    * referenced provider renders with the team bound to its team-typed
    * inputs.
    */
  def teamHomePage(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext,
                   teamName: String): Seq[GeneratedTab] =
    Config.teamHomePage(spec, teamName).flatMap(spec.provider).map { p =>
      val bound = p.inputs.filter(_.inputType == "team").map(_.name -> teamName).toMap
      tab(spec, registry, ctx, p, bound)
    }

  /** Filter a view with a query (§5.3 filter semantics): the scope is the
    * view's artifact ids; the result is the view's data narrowed to
    * matches.
    */
  def filterView(model: InterfaceModel, view: ViewModel,
                 query: String): Either[String, DataFrame] =
    model.compiler.search(query, scope = Some(view.artifactIds))

  private def tab(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext,
                  p: MetadataProviderSpec, inputs: Map[String, String]): GeneratedTab = {
    val impl = ProviderBinding.resolve(p, registry)
    val df   = impl.fetch(ctx, inputs)
    GeneratedTab(p, inputs, Views.build(p, df, spec.effectiveRanking(p)))
  }
}
