package repro.study

import org.apache.spark.sql.functions._
import repro.providers.{ProviderContext, Registry}
import repro.spec.HumboldtSpec
import repro.ui.{CategoriesView, Config, GeneratedTab, Interface, InterfaceModel}

/** Outcome of one simulated task run.
  *
  * @param steps   interaction count (tab opens, drills, page scans, queries)
  * @param assists experimenter interventions the agent needed, as in §7.2
  * @param route   which path the agent took (reported for T1's route split)
  */
final case class TaskResult(task: Int, agent: Int, success: Boolean,
                            assists: Int, steps: Int, route: String)

/** Executes the four §7.1 study tasks against a *real* generated interface.
  *
  * Nothing here inspects the catalog directly except to verify ground truth
  * — every discovery action goes through the interface model (tabs, views,
  * exploration, search, config), so a regression in generation, search
  * compilation, or ranking fails the simulated study exactly as it would
  * have failed the human one.
  */
final class StudyHarness(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext) {

  /** Rows an agent reads per page of a ranked list. */
  private val PageSize = 10

  val model: InterfaceModel = Interface.generate(spec, registry, ctx)

  /** Pages an agent scans to reach 0-based position `pos` in a ranked list. */
  private def pagesTo(pos: Int): Int = pos / PageSize + 1

  /** Task 1 — "find table AIRLINES, which has the endorsed tag". */
  def task1(agent: AgentProfile): TaskResult = {
    if (agent.searchFirst) {
      // Keyword route: one query, scan the ranked hit list for the table.
      val hits = model.compiler.search("AIRLINES").fold(
        e => throw new IllegalStateException(e), identity)
      val names = hits.select("name", "artifact_type").collect()
      val pos = names.indexWhere(r => r.getString(0) == "AIRLINES" && r.getString(1) == "table")
      TaskResult(1, agent.id, success = pos >= 0, assists = 0,
        steps = 1 + (if (pos >= 0) pagesTo(pos) else pagesTo(names.length)),
        route = "search-first")
    } else {
      // Views route: walk the overview tabs in spec order; the Badged
      // categories view matches the task's "endorsed tag" cue — drill the
      // endorsed category and scan its ranked members.
      val tabs = model.tabs
      val badgedIdx = tabs.indexWhere(_.provider.endpoint == "badged")
      require(badgedIdx >= 0, "use-case spec must surface the Badged overview")
      val members = tabs(badgedIdx).view.asInstanceOf[CategoriesView]
        .membersOf("endorsed")
        .select("name").collect().map(_.getString(0))
      val pos = members.indexOf("AIRLINES")
      TaskResult(1, agent.id, success = pos >= 0, assists = 0,
        steps = (badgedIdx + 1) + 1 + (if (pos >= 0) pagesTo(pos) else pagesTo(members.length)),
        route = "views-first")
    }
  }

  /** Task 2 — "find other elements that are similar to the table w.r.t.
    * type or badge", starting from AIRLINES (artifact 1).
    */
  def task2(agent: AgentProfile, artifactId: Long = 1L): TaskResult = {
    val assists = if (agent.awareExploration) 0 else 1 // the §7.2 reminder
    val tabs = Interface.exploration(spec, registry, ctx, artifactId)
    def others(tab: GeneratedTab): Long =
      tab.view.artifactIds.where(col("artifact_id") =!= artifactId).count()
    val byBadge = tabs.find(_.provider.endpoint == "badged").map(others).getOrElse(0L)
    val byType  = tabs.find(_.provider.endpoint == "of_type").map(others).getOrElse(0L)
    TaskResult(2, agent.id, success = byBadge > 0 || byType > 0, assists = assists,
      steps = 1 + assists + math.max(1, tabs.indexWhere(t =>
        t.provider.endpoint == "badged" || t.provider.endpoint == "of_type") + 1),
      route = "exploration")
  }

  /** Task 3 — "find all workbooks created by user John Doe" via the query
    * interface. Ground truth is read from the catalog; success requires the
    * compiled query to return exactly that set.
    */
  def task3(agent: AgentProfile): TaskResult = {
    val truth = ctx.catalog.artifacts
      .join(ctx.catalog.users.where(col("user_name") === "John Doe"),
        col("owner_id") === col("user_id"))
      .where(col("artifact_type") === "workbook")
      .select(col("artifact_id").cast("long")).collect().map(_.getLong(0)).toSet

    def ids(q: String): Set[Long] =
      model.compiler.search(q).fold(e => throw new IllegalStateException(e), identity)
        .select(col("artifact_id").cast("long")).collect().map(_.getLong(0)).toSet

    var queries = 1
    var assists = 0
    if (!agent.careful) {
      // First attempt misses the type condition (§7.2: "half of the
      // participants missed the first condition and did not filter out
      // only workbooks"). The oversized result is only acted on after the
      // experimenter's reminder.
      val first = ids("created by: 'John Doe'")
      if (first != truth) { assists += 1; queries += 1 }
    }
    val got = ids("type: workbook created by: 'John Doe'")
    TaskResult(3, agent.id, success = got == truth && truth.nonEmpty,
      assists = assists, steps = queries + 1, route = "query")
  }

  /** Task 4 — "set the team's home page to your preferred content" as A
    * Team's admin. Preference derives from the agent id; success requires
    * the regenerated home page to render exactly the chosen providers, in
    * order.
    */
  def task4(agent: AgentProfile): TaskResult = {
    val assists = if (agent.findsConfig) 0 else 1 // §7.2: help finding the setting
    val choices = spec.providers.filter(_.teamBindable)
    val prefs = Seq(
      choices(agent.id % choices.size).name,
      choices((agent.id + 2) % choices.size).name,
    ).distinct
    val updated = Config.setTeamHomePage(spec, "A Team", prefs)
    val rendered = Interface.teamHomePage(updated, registry, ctx, "A Team")
      .map(_.provider.name)
    TaskResult(4, agent.id, success = rendered == prefs,
      assists = assists, steps = 1 + assists + prefs.size, route = "config")
  }

  def runAll(agent: AgentProfile): Seq[TaskResult] =
    Seq(task1(agent), task2(agent), task3(agent), task4(agent))

  // ---- keyword-only baseline ---------------------------------------------

  /** The hardcoded-UI baseline: a conventional text search bar over names
    * and descriptions, no metadata views, no exploration, no configuration
    * (what the formative interviews call "a normal search bar is not
    * enough", §3.1). Used by bench T1/T3 for the comparison shape.
    */
  def baselineTask(task: Int, agent: AgentProfile): TaskResult = {
    def textIds(q: String): Set[Long] =
      registry.get("text_match").get.fetch(ctx, Map("q" -> q))
        .select(col("artifact_id").cast("long")).collect().map(_.getLong(0)).toSet
    task match {
      case 1 =>
        // Name search finds the table but cannot verify the endorsed tag —
        // counted as success on find, with a scan step.
        val ok = textIds("AIRLINES").nonEmpty
        TaskResult(1, agent.id, ok, assists = 0, steps = 2, route = "baseline-text")
      case 2 =>
        // No exploration surface exists to complete the task.
        TaskResult(2, agent.id, success = false, assists = 0, steps = 1, route = "baseline-text")
      case 3 =>
        // Ownership is not text; "John Doe" matches nothing searchable.
        val got = textIds("John Doe")
        TaskResult(3, agent.id, success = false, assists = 0,
          steps = 1 + math.max(1, got.size / PageSize), route = "baseline-text")
      case 4 =>
        TaskResult(4, agent.id, success = false, assists = 0, steps = 1, route = "baseline-text")
      case other => throw new IllegalArgumentException(s"no task $other")
    }
  }
}
