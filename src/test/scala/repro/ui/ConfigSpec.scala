package repro.ui

import org.scalatest.funsuite.AnyFunSuite
import repro.spec._

class ConfigSpec extends AnyFunSuite {
  import Surface._

  private val spec = UseCaseSpec.default

  test("showOn adds a surface") {
    val s = Config.showOn(spec, "Popular", Search)
    assert(s.provider("Popular").get.visibleOn(Search))
  }
  test("showOn is idempotent") {
    val s1 = Config.showOn(spec, "Popular", Search)
    val s2 = Config.showOn(s1, "Popular", Search)
    assert(s2.provider("Popular").get.visibility.count(_ == Search) == 1)
  }
  test("showOn with unknown provider is a no-op") {
    assert(Config.showOn(spec, "Nope", Search) == spec)
  }
  test("hideOn removes a surface") {
    val s = Config.hideOn(spec, "Popular", Overview)
    assert(!s.provider("Popular").get.visibleOn(Overview))
  }
  test("hideOn leaves other providers alone") {
    val s = Config.hideOn(spec, "Popular", Overview)
    assert(s.provider("Badged").get.visibleOn(Overview))
  }
  test("reorder puts the mentioned providers first") {
    val s = Config.reorder(spec, Seq("Usage Map", "Badged"))
    assert(s.providers.map(_.name).take(2) == Seq("Usage Map", "Badged"))
    assert(s.providers.size == spec.providers.size)
  }
  test("reorder keeps relative order of unmentioned providers") {
    val s = Config.reorder(spec, Seq("Usage Map"))
    val rest = s.providers.map(_.name).drop(1)
    assert(rest == spec.providers.map(_.name).filterNot(_ == "Usage Map"))
  }
  test("reorder ignores unknown names") {
    val s = Config.reorder(spec, Seq("Nope", "Popular"))
    assert(s.providers.head.name == "Popular")
  }
  test("addProvider appends") {
    val p = MetadataProviderSpec("New", "c", "d", Representation.ListRep, "recents")
    assert(Config.addProvider(spec, p).providers.last.name == "New")
  }
  test("addProvider rejects duplicates") {
    val p = MetadataProviderSpec("Popular", "c", "d", Representation.ListRep, "recents")
    assertThrows[IllegalArgumentException](Config.addProvider(spec, p))
  }
  test("removeProvider drops the entry") {
    val s = Config.removeProvider(spec, "Popular")
    assert(s.provider("Popular").isEmpty)
  }
  test("removeProvider scrubs home-page references so the spec stays valid") {
    val s = Config.removeProvider(spec, "Popular")
    assert(!Config.teamHomePage(s, "A Team").contains("Popular"))
    assert(s.validate.isEmpty)
  }
  test("removeProvider scrubs references anywhere in custom content") {
    val withFeatured = spec.copy(custom = spec.custom.updated("featured", Json.obj(
      "hero" -> Json.obj("provider" -> Json.str("Popular")),
      "rail" -> Json.obj("providers" -> Json.JArray(Vector(Json.str("Popular"), Json.str("Badged")))))))
    assert(withFeatured.validate.isEmpty)
    val s = Config.removeProvider(withFeatured, "Popular")
    assert(s.validate.isEmpty)
    assert(!s.customProviderRefs.contains("Popular"))
    assert(s.custom("featured") == Json.obj("hero" -> Json.obj(),
      "rail" -> Json.obj("providers" -> Json.JArray(Vector(Json.str("Badged"))))))
  }
  test("setTeamHomePage overwrites a team's page") {
    val s = Config.setTeamHomePage(spec, "A Team", Seq("Usage Map"))
    assert(Config.teamHomePage(s, "A Team") == Seq("Usage Map"))
  }
  test("setTeamHomePage adds a new team without clobbering others") {
    val s = Config.setTeamHomePage(spec, "B Team", Seq("Popular"))
    assert(Config.teamHomePage(s, "A Team") == Seq("Popular", "Badged", "Team Activity"))
    assert(Config.teamHomePage(s, "B Team") == Seq("Popular"))
  }
  test("setTeamHomePage rejects unknown providers") {
    assertThrows[IllegalArgumentException] {
      Config.setTeamHomePage(spec, "A Team", Seq("Nope"))
    }
  }
  test("setTeamHomePage rejects a provider whose required input is not a team") {
    val e = intercept[IllegalArgumentException](Config.setTeamHomePage(spec, "A Team", Seq("Owned By")))
    assert(e.getMessage.contains("Owned By"))
  }
  test("customized spec still validates and round-trips as JSON") {
    val s = Config.setTeamHomePage(
      Config.reorder(Config.hideOn(spec, "Popular", Overview), Seq("Badged")),
      "B Team", Seq("Badged"))
    assert(s.validate.isEmpty)
    assert(HumboldtSpec.fromJsonString(HumboldtSpec.toJson(s).pretty) == Right(s))
  }
  test("teamHomePage of unconfigured team is empty") {
    assert(Config.teamHomePage(spec, "Z Team").isEmpty)
  }
}
