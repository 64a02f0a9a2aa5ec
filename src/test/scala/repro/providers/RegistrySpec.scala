package repro.providers

import org.apache.spark.sql.DataFrame
import org.scalatest.funsuite.AnyFunSuite
import repro.spec._

class RegistrySpec extends AnyFunSuite {

  private object FakeProvider extends Provider {
    val endpoint = "fake"
    val representation: Representation = Representation.ListRep
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame =
      throw new UnsupportedOperationException
  }

  private def entry(name: String, endpoint: String,
                    rep: Representation = Representation.ListRep) =
    MetadataProviderSpec(name, "c", "d", rep, endpoint)

  test("standard registry contains all paper §6.1 endpoints") {
    val eps = Registry.standard.endpoints.toSet
    assert(Set("recents", "frequent", "owned_by", "badged", "badged_by", "of_type",
      "team_docs", "team_frequent", "lineage_children", "joinable", "embedding",
      "text_match").subsetOf(eps))
  }

  test("register adds an endpoint without touching others") {
    val r = Registry.standard
    val r2 = r.register(FakeProvider)
    assert(r2.get("fake").contains(FakeProvider))
    assert(r2.size == r.size + 1)
    assert(r.get("fake").isEmpty) // immutable
  }

  test("register replaces same endpoint (last wins)") {
    val r = Registry(FakeProvider).register(FakeProvider)
    assert(r.size == 1)
  }

  test("deregister removes") {
    val r = Registry(FakeProvider).deregister("fake")
    assert(r.get("fake").isEmpty)
  }

  test("binding validation accepts the use-case spec against standard registry") {
    assert(ProviderBinding.validate(UseCaseSpec.default, Registry.standard).isEmpty)
  }

  test("binding validation flags unregistered endpoint") {
    val spec = HumboldtSpec(Seq(entry("X", "no_such_endpoint")))
    val errs = ProviderBinding.validate(spec, Registry.standard)
    assert(errs.exists(_.contains("not registered")))
  }

  test("binding validation flags representation mismatch") {
    val spec = HumboldtSpec(Seq(entry("X", "recents", Representation.Graph)))
    val errs = ProviderBinding.validate(spec, Registry.standard)
    assert(errs.exists(_.contains("representation")))
  }

  test("standard providers declare the input names they need; the default is none") {
    val needs = StandardProviders.all.filter(_.needs.nonEmpty).map(p => p.endpoint -> p.needs).toMap
    assert(needs == Map(
      "owned_by" -> Set("user"), "badged_by" -> Set("user"),
      "team_docs" -> Set("team"), "team_frequent" -> Set("team"),
      "lineage_children" -> Set("artifact"), "joinable" -> Set("table"), "text_match" -> Set("q")))
    assert(FakeProvider.needs.isEmpty)
  }

  test("binding validation flags a spec entry that lacks an input its endpoint needs") {
    // A Lineage input renamed `root`: before this check it passed
    // validation and failed only when exploration fetched the tab.
    val renamed = UseCaseSpec.default.copy(providers = UseCaseSpec.default.providers.map {
      case p if p.name == "Lineage" => p.copy(inputs = p.inputs.map(_.copy(name = "root")))
      case p => p
    })
    assert(ProviderBinding.validate(renamed, Registry.standard) == Seq(
      "provider 'Lineage': endpoint 'lineage_children' needs input 'artifact', " +
        "which the spec entry does not declare"))
  }

  test("binding validation includes structural errors") {
    val spec = HumboldtSpec(Seq(entry("X", "recents"), entry("X", "recents")))
    assert(ProviderBinding.validate(spec, Registry.standard)
      .exists(_.contains("duplicate")))
  }

  test("resolve returns the implementation") {
    assert(ProviderBinding.resolve(entry("X", "fake"), Registry(FakeProvider)) ==
      FakeProvider)
  }

  test("resolve throws on unknown endpoint") {
    assertThrows[IllegalArgumentException] {
      ProviderBinding.resolve(entry("X", "missing"), Registry.empty)
    }
  }
}
