package repro.spec

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import scala.collection.immutable.ListMap
import repro.PropCheck.forAllG

class JsonSpec extends AnyFunSuite {
  import Json._

  private def parsed(s: String): Json =
    Json.parse(s).fold(e => fail(s"parse failed: $e"), identity)

  test("parses null") { assert(parsed("null") == JNull) }
  test("parses true") { assert(parsed("true") == JBool(true)) }
  test("parses false") { assert(parsed("false") == JBool(false)) }
  test("parses zero") { assert(parsed("0") == JNumber(0)) }
  test("parses integer") { assert(parsed("42") == JNumber(42)) }
  test("parses negative") { assert(parsed("-17") == JNumber(-17)) }
  test("parses decimal") { assert(parsed("4.3") == JNumber(4.3)) }
  test("parses exponent") { assert(parsed("1.5e3") == JNumber(1500.0)) }
  test("parses negative exponent") { assert(parsed("2E-2") == JNumber(0.02)) }
  test("parses empty string") { assert(parsed("\"\"") == JString("")) }
  test("parses simple string") { assert(parsed("\"abc\"") == JString("abc")) }
  test("parses escaped quote") { assert(parsed("\"a\\\"b\"") == JString("a\"b")) }
  test("parses escaped backslash") { assert(parsed("\"a\\\\b\"") == JString("a\\b")) }
  test("parses newline escape") { assert(parsed("\"a\\nb\"") == JString("a\nb")) }
  test("parses tab escape") { assert(parsed("\"a\\tb\"") == JString("a\tb")) }
  test("parses unicode escape") { assert(parsed("\"\\u0041\"") == JString("A")) }
  test("parses empty array") { assert(parsed("[]") == JArray(Vector.empty)) }
  test("parses array") {
    assert(parsed("[1, 2, 3]") == JArray(Vector(JNumber(1), JNumber(2), JNumber(3))))
  }
  test("parses nested array") {
    assert(parsed("[[1],[2]]") ==
      JArray(Vector(JArray(Vector(JNumber(1))), JArray(Vector(JNumber(2))))))
  }
  test("parses empty object") { assert(parsed("{}") == JObject(ListMap.empty)) }
  test("parses object") {
    assert(parsed("""{"a": 1, "b": "x"}""") ==
      JObject(ListMap("a" -> JNumber(1), "b" -> JString("x"))))
  }
  test("preserves object key order") {
    val keys = parsed("""{"z": 1, "a": 2, "m": 3}""").obj.get.keys.toSeq
    assert(keys == Seq("z", "a", "m"))
  }
  test("parses the paper's Listing 1 ranking snippet") {
    val j = parsed("""{"ranking": [{"field": "favorite", "weight": 4.3},
                      {"field": "views", "weight": 1.5}]}""")
    val entries = j("ranking").get.arr.get
    assert(entries.size == 2)
    assert(entries(0)("field").get.str.contains("favorite"))
    assert(entries(0)("weight").get.num.contains(4.3))
  }
  test("tolerates surrounding whitespace") { assert(parsed("  \n 1 \t ") == JNumber(1)) }

  test("rejects trailing garbage") { assert(Json.parse("1 x").isLeft) }
  test("rejects unterminated string") { assert(Json.parse("\"abc").isLeft) }
  test("rejects unterminated array") { assert(Json.parse("[1, 2").isLeft) }
  test("rejects unterminated object") { assert(Json.parse("""{"a": 1""").isLeft) }
  test("rejects bare word") { assert(Json.parse("hello").isLeft) }
  test("rejects missing colon") { assert(Json.parse("""{"a" 1}""").isLeft) }
  test("rejects missing value") { assert(Json.parse("""{"a":}""").isLeft) }
  test("rejects bad escape") { assert(Json.parse("\"\\x\"").isLeft) }
  test("rejects truncated unicode") { assert(Json.parse("\"\\u00\"").isLeft) }
  test("rejects lone comma in array") { assert(Json.parse("[,]").isLeft) }
  test("rejects empty input") { assert(Json.parse("").isLeft) }
  test("parse error carries offset") {
    val e = Json.parse("[1, x]").swap.getOrElse(fail())
    assert(e.offset > 0)
  }

  test("renders null") { assert(JNull.render == "null") }
  test("renders whole numbers without decimal point") { assert(JNumber(42).render == "42") }
  test("renders fractional numbers") { assert(JNumber(4.3).render == "4.3") }
  test("renders strings with escapes") { assert(JString("a\"b\n").render == "\"a\\\"b\\n\"") }
  test("renders arrays compactly") {
    assert(Json.arr(Json.num(1), Json.num(2)).render == "[1,2]")
  }
  test("renders objects compactly") {
    assert(Json.obj("a" -> Json.num(1)).render == "{\"a\":1}")
  }
  test("pretty rendering is parseable") {
    val j = Json.obj("a" -> Json.arr(Json.num(1), Json.str("x")), "b" -> JNull)
    assert(parsed(j.pretty) == j)
  }

  test("field access on non-objects is None") {
    assert(JNumber(1)("x").isEmpty)
    assert(JArray(Vector.empty)("x").isEmpty)
  }
  test("field access filters explicit nulls") {
    assert(parsed("""{"a": null}""")("a").isEmpty)
  }
  test("typed accessors reject other shapes") {
    assert(JNumber(1).str.isEmpty)
    assert(JString("x").num.isEmpty)
    assert(JBool(true).arr.isEmpty)
    assert(JNull.obj.isEmpty)
  }

  test("parse and render leave the shared json4s mapper untouched") {
    val mapper = org.json4s.jackson.JsonMethods.mapper
    val feature = com.fasterxml.jackson.databind.DeserializationFeature.FAIL_ON_TRAILING_TOKENS
    assert(Json.parse("1 x").isLeft)
    assert(parsed("[1]").render == "[1]")
    assert(!mapper.isEnabled(feature))
  }
  test("a repeated key keeps its first position and its last value") {
    val j = parsed("""{"a": 1, "b": 2, "a": 3}""")
    assert(j == JObject(ListMap("a" -> JNumber(3), "b" -> JNumber(2))))
    assert(j.render == """{"a":3,"b":2}""")
  }
  test("pretty puts each array element on its own line") {
    val j = Json.obj("xs" -> Json.arr(Json.num(1), Json.str("x")), "e" -> Json.arr(), "o" -> Json.obj())
    assert(j.pretty == "{\n  \"xs\": [\n    1,\n    \"x\"\n  ],\n  \"e\": [],\n  \"o\": {}\n}")
  }

  // ---- property tests ----------------------------------------------------

  private val genLeaf: Gen[Json] = Gen.oneOf(
    Gen.const(JNull),
    Gen.oneOf(true, false).map(JBool(_)),
    Gen.chooseNum(-1e6, 1e6).map(d => JNumber(math.round(d * 1000).toDouble / 1000)),
    Gen.alphaNumStr.map(JString(_)),
    Gen.oneOf("\"", "\\", "\n", "\t", "späce", "日本", "").map(JString(_)),
  )

  private def genJson(depth: Int): Gen[Json] =
    if (depth <= 0) genLeaf
    else Gen.frequency(
      3 -> genLeaf,
      1 -> Gen.listOfN(3, genJson(depth - 1)).map(xs => JArray(xs.toVector)),
      1 -> Gen.listOfN(3, Gen.zip(Gen.alphaNumStr, genJson(depth - 1)))
        .map(kvs => JObject(ListMap(kvs: _*))),
    )

  test("property: render/parse round-trips") {
    forAllG(genJson(3)) { j =>
      assert(parsed(j.render) == j)
    }
  }

  test("property: pretty/parse round-trips") {
    forAllG(genJson(2)) { j =>
      assert(parsed(j.pretty) == j)
    }
  }

  test("property: strings round-trip through escaping") {
    forAllG(Gen.listOf(Gen.asciiPrintableChar).map(_.mkString)) { s =>
      assert(parsed(JString(s).render) == JString(s))
    }
  }
}
