package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.functions._
import repro.providers.{Provider, ProviderContext, Registry, SqlProvider}
import repro.spec._
import repro.ui.{Config, GeneratedTab, Interface, ListView}

/** T5 -- extensibility: "adding a few lines of specification instead of
  * changing the UI implementation" (paper §1, §4.4).
  *
  * The measurable claim: enabling a brand-new metadata provider end to end
  * requires (a) one registered implementation and (b) a handful of spec
  * lines -- and *zero* changes to view generation, exploration, search
  * compilation, autocomplete, or ranking code. This bench adds a
  * `similar_usage` provider (artifacts whose usage count is closest to a
  * selected artifact's), counts the spec lines added, and verifies every
  * generated surface picks it up.
  */
class T5_ExtensibilityBench extends AnyFunSuite {
  import BenchFixtures._

  /** The new implementation a developer would register. */
  private object SimilarUsage extends Provider {
    val endpoint = "similar_usage"
    val representation: Representation = Representation.ListRep
    def fetch(ctx: ProviderContext, inputs: Map[String, String]) = {
      val id = need(inputs, "artifact").toLong
      val anchor = ctx.enrichedArtifacts.where(col("artifact_id") === id)
        .select("views").collect()(0).getLong(0)
      ctx.enrichedArtifacts
        .withColumn("usage_distance", abs(col("views") - anchor))
        .orderBy(col("usage_distance"), col("artifact_id"))
    }
  }

  /** The same provider as one query over the provider context's relations. */
  private val SimilarUsageSql = SqlProvider("similar_usage", Representation.ListRep,
    """SELECT *, abs(views - (SELECT views FROM {base} WHERE artifact_id = :artifact)) AS usage_distance
      |FROM {base} ORDER BY usage_distance, artifact_id""".stripMargin)

  test("T5: extensibility table -- spec lines vs code changed") {
    val ctx = ctx01
    val before = Interface.generate(UseCaseSpec.default, Registry.standard, ctx)

    // The spec entry an admin adds (Listing-1-style JSON).
    val entry = MetadataProviderSpec(
      name = "Similar Usage", category = "relatedness",
      description = "Artifacts with usage closest to the selected artifact",
      representation = Representation.ListRep, endpoint = "similar_usage",
      inputs = Seq(InputSpec("artifact", "artifact", required = true)),
      visibility = Seq(Surface.Exploration, Surface.Search),
      searchKey = Some("similar usage"),
      ranking = Seq(RankingWeight("usage_distance", -1.0)))
    val specLinesAdded = HumboldtSpec.toJson(
      HumboldtSpec(Seq(entry))).pretty.linesIterator.size - 4 // minus wrapper

    val extSpec = Config.addProvider(UseCaseSpec.default, entry)
    val extReg = Registry.standard.register(SimilarUsage)
    val after = Interface.generate(extSpec, extReg, ctx)

    // 1. Exploration: selecting AIRLINES now surfaces the new view.
    val tabs = Interface.exploration(extSpec, extReg, ctx, 1L)
    val tab = tabs.find(_.provider.name == "Similar Usage")
    assert(tab.isDefined, "exploration did not surface the new provider")
    assert(tab.get.view.artifactIds.count() > 0)

    // 2. Search grammar: the new key is admissible and compiles.
    assert(after.searchKeys.contains("similar usage"))
    val hits = after.compiler.search("similar usage: 1 & type: table")
      .fold(e => fail(e), identity)
    assert(hits.count() > 0)

    // 3. Autocomplete knows the new key.
    assert(after.suggest.completeKey("similar").map(_.provider) == Seq("Similar Usage"))

    // 4. Nothing else changed: same overview tabs, same other keys.
    assert(after.tabs.map(_.provider.name) == before.tabs.map(_.provider.name))
    assert(before.searchKeys.toSet.subsetOf(after.searchKeys.toSet))

    // 5. The SQL form registers in place of the Scala one and gives the
    // exploration tab the same rows.
    val sqlTab = Interface.exploration(extSpec, Registry.standard.register(SimilarUsageSql), ctx, 1L)
      .find(_.provider.name == "Similar Usage")
    def rows(t: Option[GeneratedTab]): Seq[String] =
      t.get.view.asInstanceOf[ListView].data.collect().map(_.toString).toSeq.sorted
    assert(rows(sqlTab) == rows(tab), "the SQL form's tab differs from the Scala form's")

    banner("T5 -- Extensibility: adding the 'Similar Usage' provider")
    println(f"${"form"}%-16s${"spec lines added"}%-18s${"registered"}%-12s${"UI/view/search/ranking code changed"}%s")
    println(f"${"Scala Provider"}%-16s$specLinesAdded%-18d${"1 object"}%-12s${0}%d lines")
    println(f"${"SqlProvider"}%-16s$specLinesAdded%-18d${"1 query"}%-12s${0}%d lines")
    println("surfaces picking it up automatically: exploration, search, autocomplete")
    println("paper claim: 'a few lines of Humboldt specification' (sec. 1) -- " +
      s"measured: $specLinesAdded spec lines, 0 UI code changes")

    assert(specLinesAdded <= 30, s"spec entry unexpectedly large: $specLinesAdded lines")
  }

  test("T5b: removing a provider is equally cheap and total") {
    val ctx = ctx01
    val shrunk = Config.removeProvider(UseCaseSpec.default, "Badged")
    val model = Interface.generate(shrunk, Registry.standard, ctx)
    assert(!model.tabs.exists(_.provider.name == "Badged"))
    assert(!model.searchKeys.contains("badged"))
    // The removed key is no longer parseable -- the grammar shrank with it.
    assert(model.compiler.search("badged: endorsed").isLeft)
    // But 'badged by' (a different provider) still works.
    assert(model.compiler.search("badged by: 'Mike'").isRight)
  }
}
