package repro.integration

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestFixtures}
import repro.providers.Registry
import repro.search.QueryParser
import repro.spec._
import repro.ui.{Config, Interface}

/** The full Humboldt loop, end to end: a spec document on disk is parsed,
  * validated, turned into a discovery interface over a real catalog with
  * real extracted relationship metadata; searches compile and run; an admin
  * edits the spec; the interface regenerates — with zero changes to any
  * view/search/ranking code in between. This is the paper's core claim
  * exercised as one test flow.
  */
class EndToEndSpec extends SparkSpec {

  private lazy val ctx = TestFixtures.ctx
  private val registry = Registry.standard

  test("spec written to disk, read back, validated, and rendered") {
    val path = Files.createTempFile("humboldt-spec", ".json")
    Files.writeString(path, HumboldtSpec.toJson(UseCaseSpec.default).pretty)

    val loaded = HumboldtSpec.fromJsonString(Files.readString(path))
      .fold(e => fail(e), identity)
    assert(loaded == UseCaseSpec.default)

    val model = Interface.generate(loaded, registry, ctx)
    assert(model.tabs.nonEmpty)

    // Search straight from the loaded spec: flagship query end to end.
    val hits = model.compiler.search(UseCaseSpec.flagshipQuery)
      .fold(e => fail(e), identity)
      .select("artifact_id").collect().map(_.getLong(0)).toSet
    assert(hits == Set(2L, 3L))
  }

  test("a user journey: overview -> select -> explore -> filter -> found") {
    val model = Interface.generate(UseCaseSpec.default, registry, ctx)

    // 1. Start from the Badged overview, drill endorsed.
    val badged = model.tabs.find(_.provider.name == "Badged").get
    val endorsed = badged.view.asInstanceOf[repro.ui.CategoriesView]
      .membersOf("endorsed")
    assert(endorsed.where(col("name") === "AIRLINES").count() == 1)

    // 2. Select AIRLINES; exploration lights up related providers.
    val exploreTabs = Interface.exploration(UseCaseSpec.default, registry, ctx, 1L)
    assert(exploreTabs.nonEmpty)

    // 3. Follow lineage down to the dashboard built on the table.
    val lineage = exploreTabs.find(_.provider.name == "Lineage").get
    val reached = lineage.view.artifactIds.collect().map(_.getLong(0)).toSet
    assert(reached.contains(6L)) // AIRLINES_DASHBOARD

    // 4. Filter the Popular view down with a text query.
    val popular = model.tabs.find(_.provider.name == "Popular").get
    val filtered = Interface.filterView(model, popular.view, "'dashboard'")
      .fold(e => fail(e), identity)
    assert(filtered.count() > 0)
  }

  test("admin reconfiguration round-trip changes the rendered interface") {
    val spec0 = UseCaseSpec.default
    // An admin hides the embedding view, reorders, and changes A Team's page.
    val spec1 = Config.setTeamHomePage(
      Config.reorder(Config.hideOn(spec0, "Usage Map", Surface.Overview),
        Seq("Badged", "Popular")),
      "A Team", Seq("Team Documents", "Popular"))

    // Persist and reload, as the admin UI would.
    val reloaded = HumboldtSpec.fromJsonString(HumboldtSpec.toJson(spec1).pretty)
      .fold(e => fail(e), identity)

    val model = Interface.generate(reloaded, registry, ctx)
    assert(model.tabs.map(_.provider.name) ==
      Seq("Badged", "Popular", "Recent Documents", "Type"))
    val page = Interface.teamHomePage(reloaded, registry, ctx, "A Team")
    assert(page.map(_.provider.name) == Seq("Team Documents", "Popular"))
  }

  test("new provider: spec entry + registered endpoint, zero UI changes") {
    // A 'Stale Docs' provider: the least-recently created artifacts — a new
    // implementation a developer registers, then enables via spec.
    object StaleDocs extends repro.providers.Provider {
      val endpoint = "stale_docs"
      val representation: Representation = Representation.ListRep
      def fetch(pctx: repro.providers.ProviderContext,
                inputs: Map[String, String]) =
        pctx.enrichedArtifacts.orderBy(col("created_at").asc, col("artifact_id"))
    }
    val extReg = registry.register(StaleDocs)
    val extSpec = Config.addProvider(UseCaseSpec.default, MetadataProviderSpec(
      name = "Stale Docs", category = "interaction",
      description = "Artifacts that have not been refreshed in a while",
      representation = Representation.ListRep, endpoint = "stale_docs",
      visibility = Seq(Surface.Overview, Surface.Search)))

    val model = Interface.generate(extSpec, extReg, ctx)
    // The view appears...
    assert(model.tabs.map(_.provider.name).contains("Stale Docs"))
    // ...and the provider is immediately callable from the query language.
    val hits = model.compiler.search(":stale_docs() & 'airlines'")
      .fold(e => fail(e), identity)
    assert(hits.count() > 0)
  }

  test("search grammar grows with the spec (abstract's compilation claim)") {
    val before = QueryParser.fromSpec(UseCaseSpec.default)
    assert(before.parse("team: 'A Team'").isLeft)

    val extended = Config.addProvider(UseCaseSpec.default, MetadataProviderSpec(
      name = "Team", category = "annotations", description = "Artifacts of a team",
      representation = Representation.Tiles, endpoint = "team_docs",
      inputs = Seq(InputSpec("team", "team", required = true)),
      visibility = Seq(Surface.Search), searchKey = Some("team")))
    val after = new repro.search.QueryCompiler(extended, registry, ctx)
    val hits = after.search("team: 'A Team' & type: table")
      .fold(e => fail(e), identity)
    assert(hits.count() > 0)
    val types = hits.select("artifact_type").distinct().collect().map(_.getString(0))
    assert(types.toSeq == Seq("table"))
  }
}
