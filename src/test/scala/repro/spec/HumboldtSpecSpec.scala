package repro.spec

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.ListMap

class HumboldtSpecSpec extends AnyFunSuite {
  import Representation._
  import Surface._

  private def provider(name: String = "P",
                       endpoint: String = "recents",
                       rep: Representation = ListRep,
                       key: Option[String] = None,
                       vis: Seq[Surface] = Surface.all,
                       inputs: Seq[InputSpec] = Seq.empty,
                       ranking: Seq[RankingWeight] = Seq.empty) =
    MetadataProviderSpec(name, "cat", "desc", rep, endpoint, inputs, vis, key, ranking)

  // ---- representation / surface enums ------------------------------------

  test("all six paper representations exist") {
    assert(Representation.all.map(_.name).toSet ==
      Set("tiles", "list", "hierarchy", "graph", "categories", "embedding"))
  }
  test("representation lookup is case-insensitive") {
    assert(Representation.fromName("GRAPH") == Right(Graph))
  }
  test("representation lookup rejects unknown") {
    assert(Representation.fromName("pie").isLeft)
  }
  test("surface lookup works") {
    assert(Surface.fromName("overview") == Right(Overview))
    assert(Surface.fromName("bogus").isLeft)
  }

  // ---- accessors ---------------------------------------------------------

  test("providersOn filters by surface and keeps spec order") {
    val s = HumboldtSpec(Seq(
      provider("A", vis = Seq(Overview)),
      provider("B", vis = Seq(Search)),
      provider("C", vis = Seq(Overview, Search))))
    assert(s.providersOn(Overview).map(_.name) == Seq("A", "C"))
    assert(s.providersOn(Search).map(_.name) == Seq("B", "C"))
    assert(s.providersOn(Exploration).isEmpty)
  }

  test("effectiveRanking falls back to global") {
    val g = Seq(RankingWeight("views", 1.5))
    val local = Seq(RankingWeight("favorites", 4.3))
    val s = HumboldtSpec(Seq(provider("A"), provider("B", ranking = local)), g)
    assert(s.effectiveRanking(s.provider("A").get) == g)
    assert(s.effectiveRanking(s.provider("B").get) == local)
  }

  test("requiredInputs filters optional") {
    val p = provider(inputs = Seq(
      InputSpec("user", "user", required = true),
      InputSpec("badge", "badge", required = false)))
    assert(p.requiredInputs.map(_.name) == Seq("user"))
  }

  // ---- validation --------------------------------------------------------

  test("valid spec has no errors") {
    assert(HumboldtSpec(Seq(provider("A"), provider("B"))).validate.isEmpty)
  }
  test("duplicate provider names are rejected") {
    val errs = HumboldtSpec(Seq(provider("A"), provider("A"))).validate
    assert(errs.exists(_.contains("duplicate provider name")))
  }
  test("duplicate search keys are rejected") {
    val errs = HumboldtSpec(Seq(
      provider("A", key = Some("owned by")),
      provider("B", key = Some("owned by")))).validate
    assert(errs.exists(_.contains("duplicate search key")))
  }
  test("search keys that differ only in case or surrounding space are duplicates") {
    // The query grammar trims keys and matches them ignoring case.
    Seq(Seq("Type", "type"), Seq("owned by", "OWNED BY")).foreach { keys =>
      val errs = HumboldtSpec(Seq(provider("A", key = Some(keys(0))),
        provider("B", key = Some(keys(1))))).validate
      assert(errs.exists(_.contains("duplicate search key")), s"$keys: $errs")
    }
  }
  test("a search key with surrounding whitespace is rejected") {
    Seq(" owned by", "owned by ", "\towned by").foreach { k =>
      val errs = HumboldtSpec(Seq(provider("A", key = Some(k)))).validate
      assert(errs == Seq(s"provider 'A' has search key '$k' with surrounding whitespace"))
    }
    assert(HumboldtSpec(Seq(provider("A", key = Some("owned by")))).validate.isEmpty)
  }
  test("empty endpoint is rejected") {
    assert(HumboldtSpec(Seq(provider(endpoint = " "))).validate.nonEmpty)
  }
  test("fully hidden provider is legal (the §4.4 'hide' end state)") {
    assert(HumboldtSpec(Seq(provider(vis = Seq.empty))).validate.isEmpty)
  }
  test("duplicate inputs are rejected") {
    val errs = HumboldtSpec(Seq(provider(inputs = Seq(
      InputSpec("x", "text", false), InputSpec("x", "user", true))))).validate
    assert(errs.exists(_.contains("duplicate input")))
  }
  test("non-finite ranking weight is rejected") {
    val errs = HumboldtSpec(Seq(provider()),
      globalRanking = Seq(RankingWeight("views", Double.NaN))).validate
    assert(errs.exists(_.contains("non-finite")))
  }
  test("dangling custom provider reference is rejected") {
    val s = HumboldtSpec(Seq(provider("A")), custom = ListMap(
      "team_home_pages" -> Json.arr(Json.obj(
        "team" -> Json.str("T"),
        "providers" -> Json.arr(Json.str("Nope"))))))
    assert(s.validate.exists(_.contains("unknown provider 'Nope'")))
  }
  test("resolvable custom provider reference passes") {
    val s = HumboldtSpec(Seq(provider("A")), custom = ListMap(
      "team_home_pages" -> Json.arr(Json.obj(
        "team" -> Json.str("T"),
        "providers" -> Json.arr(Json.str("A"))))))
    assert(s.validate.isEmpty)
  }
  test("a home page entry whose provider needs a non-team input is rejected") {
    val owned = provider("Owned", inputs = Seq(InputSpec("user", "user", required = true)))
    val team = provider("Team", inputs = Seq(InputSpec("team", "team", required = true)))
    val s = HumboldtSpec(Seq(owned, team), custom = ListMap(
      "team_home_pages" -> Json.arr(Json.obj(
        "team" -> Json.str("T"),
        "providers" -> Json.arr(Json.str("Team"), Json.str("Owned"))))))
    assert(s.validate == Seq("home page of 'T' lists provider 'Owned', " +
      "which has a required input that is not of type 'team'"))
  }
  test("customProviderRefs walks nested structures") {
    val s = HumboldtSpec(Seq.empty, custom = ListMap(
      "page" -> Json.obj("sections" -> Json.arr(
        Json.obj("provider" -> Json.str("X")),
        Json.obj("providers" -> Json.arr(Json.str("Y"), Json.str("Z")))))))
    assert(s.customProviderRefs.toSet == Set("X", "Y", "Z"))
  }

  // ---- JSON round-trip ---------------------------------------------------

  test("use-case spec serializes and parses back identically") {
    val s = UseCaseSpec.default
    val json = HumboldtSpec.toJson(s)
    assert(HumboldtSpec.fromJson(json) == Right(s))
  }
  test("use-case spec round-trips through rendered text") {
    val s = UseCaseSpec.default
    assert(HumboldtSpec.fromJsonString(HumboldtSpec.toJson(s).pretty) == Right(s))
  }
  test("use-case spec validates") {
    assert(UseCaseSpec.default.validate.isEmpty)
  }
  test("fromJson rejects missing providers array") {
    assert(HumboldtSpec.fromJson(Json.obj()).isLeft)
  }
  test("fromJson rejects provider without name") {
    val j = Json.obj("providers" -> Json.arr(Json.obj("category" -> Json.str("x"))))
    assert(HumboldtSpec.fromJson(j).isLeft)
  }
  test("fromJson rejects bad representation") {
    val j = Json.obj("providers" -> Json.arr(Json.obj(
      "name" -> Json.str("A"), "category" -> Json.str("c"),
      "representation" -> Json.str("pie"), "endpoint" -> Json.str("e"))))
    assert(HumboldtSpec.fromJson(j).isLeft)
  }
  test("fromJsonString reports where malformed JSON fails") {
    val err = HumboldtSpec.fromJsonString("""{"providers": [1,}""").swap.getOrElse(fail())
    assert(err.endsWith("at offset 17"), err)
  }
  test("read rejects a missing file") {
    assert(HumboldtSpec.read("no/such/spec.json").isLeft)
  }
  test("read takes a spec file as UTF-8") {
    val spec = HumboldtSpec(Seq(provider(name = "Übersicht")))
    val file = java.nio.file.Files.createTempFile("spec", ".json")
    try {
      java.nio.file.Files.write(file, HumboldtSpec.toJson(spec).pretty.getBytes("UTF-8"))
      assert(HumboldtSpec.read(file.toString) == Right(spec))
    } finally java.nio.file.Files.delete(file)
  }
  test("fromJson defaults visibility to all surfaces") {
    val j = Json.obj("providers" -> Json.arr(Json.obj(
      "name" -> Json.str("A"), "category" -> Json.str("c"),
      "representation" -> Json.str("list"), "endpoint" -> Json.str("e"))))
    val s = HumboldtSpec.fromJson(j).toOption.get
    assert(s.providers.head.visibility == Surface.all)
  }
  test("fromJson parses a hand-written minimal spec") {
    val text =
      """{"providers": [
        |  {"name": "Owned By", "category": "annotations",
        |   "representation": "list", "endpoint": "owned_by",
        |   "inputs": [{"name": "user", "type": "user", "required": true}],
        |   "visibility": ["search"], "searchKey": "owned by",
        |   "ranking": [{"field": "views", "weight": 1.5}]}
        |],
        |"ranking": [{"field": "favorites", "weight": 4.3}]}""".stripMargin
    val s = HumboldtSpec.fromJsonString(text).toOption.get
    val p = s.providers.head
    assert(p.name == "Owned By")
    assert(p.representation == ListRep)
    assert(p.inputs == Seq(InputSpec("user", "user", required = true)))
    assert(p.visibility == Seq(Search))
    assert(p.searchKey.contains("owned by"))
    assert(p.ranking == Seq(RankingWeight("views", 1.5)))
    assert(s.globalRanking == Seq(RankingWeight("favorites", 4.3)))
  }

  test("adding a provider is a few lines of JSON, not code (paper §1)") {
    // The T5 extensibility claim at the spec level: appending one object to
    // the providers array yields a spec with one more search key.
    val base = HumboldtSpec.toJson(UseCaseSpec.default)
    val extra = Json.obj(
      "name" -> Json.str("Similar Usage"), "category" -> Json.str("relatedness"),
      "representation" -> Json.str("list"), "endpoint" -> Json.str("text_match"),
      "inputs" -> Json.arr(Json.obj("name" -> Json.str("q"),
        "type" -> Json.str("text"), "required" -> Json.bool(true))),
      "searchKey" -> Json.str("similar to"))
    val patched = Json.JObject(base.obj.get.updated("providers",
      Json.JArray(base("providers").get.arr.get :+ extra)))
    val s = HumboldtSpec.fromJson(patched).toOption.get
    assert(s.providers.size == UseCaseSpec.default.providers.size + 1)
    assert(s.provider("Similar Usage").flatMap(_.searchKey).contains("similar to"))
    assert(s.validate.isEmpty)
  }
}
