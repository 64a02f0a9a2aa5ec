package repro.ui

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
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
    * used to inform and surface more metadata providers").
    */
  def explorationContext(ctx: ProviderContext, artifactId: Long): Map[String, String] = {
    val a = ctx.catalog.artifacts.where(col("artifact_id") === artifactId)
      .join(ctx.catalog.users.select(col("user_id"), col("user_name")),
        col("owner_id") === col("user_id"), "left")
      .join(ctx.catalog.teams, Seq("team_id"), "left")
      .select("name", "artifact_type", "user_name", "team_name")
      .collect()
    if (a.isEmpty) return Map.empty
    val row = a(0)
    val badge = ctx.catalog.badges.where(col("artifact_id") === artifactId)
      .select("badge").limit(1).collect().headOption.map(_.getString(0))

    val base = Map(
      "artifact" -> artifactId.toString,
      "artifact_type" -> row.getAs[String]("artifact_type"),
    ) ++
      Option(row.getAs[String]("user_name")).map("user" -> _) ++
      Option(row.getAs[String]("team_name")).map("team" -> _) ++
      badge.map("badge" -> _) ++
      (if (row.getAs[String]("artifact_type") == "table")
         Some("table" -> row.getAs[String]("name"))
       else None)
    base
  }

  /** Exploration tabs for a selected artifact (§5.2, §6.3): every
    * exploration-visible provider whose required inputs can all be bound
    * from the artifact's metadata. Optional inputs bind opportunistically.
    */
  def exploration(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext,
                  artifactId: Long): Seq[GeneratedTab] = {
    val context = explorationContext(ctx, artifactId)
    spec.providersOn(Surface.Exploration).flatMap { p =>
      val bound = p.inputs.flatMap(in => context.get(in.inputType).map(in.name -> _)).toMap
      val satisfied = p.requiredInputs.forall(in => bound.contains(in.name))
      if (satisfied && p.inputs.nonEmpty) Some(tab(spec, registry, ctx, p, bound))
      else None
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
