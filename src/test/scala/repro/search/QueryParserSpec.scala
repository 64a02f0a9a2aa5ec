package repro.search

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropCheck.forAllG
import repro.spec.UseCaseSpec

class QueryParserSpec extends AnyFunSuite {
  import Query._

  private val parser = QueryParser.fromSpec(UseCaseSpec.default)

  private def parsed(q: String): Query =
    parser.parse(q).fold(e => fail(s"parse failed for '$q': $e"), identity)

  // ---- elements ----------------------------------------------------------

  test("bare word is free text") { assert(parsed("sales") == Text("sales")) }
  test("quoted single is free text") { assert(parsed("'sales data'") == Text("sales data")) }
  test("quoted double is free text") { assert(parsed("\"sales\"") == Text("sales")) }
  test("simple field pred") { assert(parsed("type: table") == FieldPred("type", "table")) }
  test("field pred with quoted value") {
    assert(parsed("owned by: 'Alex'") == FieldPred("owned by", "Alex"))
  }
  test("multi-word key without space before colon") {
    assert(parsed("owned by:'Alex'") == FieldPred("owned by", "Alex"))
  }
  test("multi-word key with extra internal spaces") {
    assert(parsed("owned   by : Alex") == FieldPred("owned by", "Alex"))
  }
  test("keys are case-insensitive") {
    assert(parsed("Type: table") == FieldPred("type", "table"))
    assert(parsed("OWNED BY: Alex") == FieldPred("owned by", "Alex"))
  }
  test("longest key wins: badged by vs badged") {
    assert(parsed("badged by: 'Mike'") == FieldPred("badged by", "Mike"))
    assert(parsed("badged: endorsed") == FieldPred("badged", "endorsed"))
  }
  test("value with spaces needs quotes") {
    assert(parsed("created by: 'John Doe'") == FieldPred("created by", "John Doe"))
  }
  test("provider call without args") {
    assert(parsed(":recent_documents()") == ProviderCall("recent_documents", Seq.empty))
  }
  test("provider call with one arg") {
    assert(parsed(":owned_by('Alex')") == ProviderCall("owned_by", Seq("Alex")))
  }
  test("provider call with bare arg") {
    assert(parsed(":owned_by(Alex)") == ProviderCall("owned_by", Seq("Alex")))
  }
  test("provider call with two args") {
    assert(parsed(":badged(endorsed, 'Mike')") == ProviderCall("badged", Seq("endorsed", "Mike")))
  }
  test("unknown provider call is an error") {
    assert(parser.parse(":nope()").isLeft)
  }
  test("provider name normalization accepts mixed case") {
    assert(parsed(":Recent_Documents()") == ProviderCall("recent_documents", Seq.empty))
  }

  // ---- combinators -------------------------------------------------------

  test("explicit and") {
    assert(parsed("a & b") == And(Text("a"), Text("b")))
  }
  test("word and") { assert(parsed("a and b") == And(Text("a"), Text("b"))) }
  test("implicit and by juxtaposition") {
    assert(parsed("type: table 'sales'") == And(FieldPred("type", "table"), Text("sales")))
  }
  test("or") { assert(parsed("a | b") == Or(Text("a"), Text("b"))) }
  test("word or") { assert(parsed("a or b") == Or(Text("a"), Text("b"))) }
  test("negation") { assert(parsed("!a") == Not(Text("a"))) }
  test("word not") { assert(parsed("not a") == Not(Text("a"))) }
  test("negated field") {
    assert(parsed("! badged: deprecated") == Not(FieldPred("badged", "deprecated")))
  }
  test("and binds tighter than or") {
    assert(parsed("a & b | c") == Or(And(Text("a"), Text("b")), Text("c")))
  }
  test("brackets override precedence") {
    assert(parsed("a & (b | c)") == And(Text("a"), Or(Text("b"), Text("c"))))
  }
  test("nested brackets") {
    assert(parsed("((a))") == Text("a"))
  }
  test("and chains left-associate") {
    assert(parsed("a & b & c") == And(And(Text("a"), Text("b")), Text("c")))
  }
  test("the paper's prefix example parses") {
    assert(parsed(":recent_documents() & bit") ==
      And(ProviderCall("recent_documents", Seq.empty), Text("bit")))
  }
  test("the abstract's flagship query parses") {
    val q = parsed(UseCaseSpec.flagshipQuery)
    assert(q == And(And(And(And(
      FieldPred("type", "table"),
      FieldPred("owned by", "Alex")),
      FieldPred("badged", "endorsed")),
      FieldPred("badged by", "Mike")),
      Text("sales")))
  }
  test("flagship query uses exactly the spec-compiled keys") {
    assert(parsed(UseCaseSpec.flagshipQuery).fieldKeys ==
      Set("type", "owned by", "badged", "badged by"))
  }

  // ---- errors ------------------------------------------------------------

  test("empty query is an error") { assert(parser.parse("").isLeft) }
  test("whitespace-only query is an error") { assert(parser.parse("  ").isLeft) }
  test("dangling field key is an error") { assert(parser.parse("type:").isLeft) }
  test("unbalanced bracket is an error") { assert(parser.parse("(a").isLeft) }
  test("stray close bracket is an error") { assert(parser.parse("a)").isLeft) }
  test("dangling operator is an error") { assert(parser.parse("a &").isLeft) }
  test("leading operator is an error") { assert(parser.parse("& a").isLeft) }
  test("unterminated quote is an error") { assert(parser.parse("'abc").isLeft) }
  test("unterminated call args is an error") { assert(parser.parse(":owned_by('Alex'").isLeft) }
  test("unknown key is a helpful error, not silent text") {
    // `size:` is not a spec key; `size` lexes as a word and `:` starts a
    // provider-call attempt which fails with a helpful message.
    assert(parser.parse("size: 10").isLeft)
  }

  // ---- behaviours the grammar doc states -----------------------------------

  test("dashes, operator-like words, quoted spaces, keys and bare calls") {
    Seq(
      "-a" -> Text("-a"),
      "android" -> Text("android"),
      "' sales '" -> Text(" sales "),
      "typeface:recent_documents" -> And(Text("typeface"), ProviderCall("recent_documents", Seq.empty)),
      ":recent_documents" -> ProviderCall("recent_documents", Seq.empty),
      ":recent_documents sales" -> And(ProviderCall("recent_documents", Seq.empty), Text("sales")),
    ).foreach { case (input, ast) => assert(parsed(input) == ast, input) }
  }
  test("a key needs a value that is not another key or an operator") {
    Seq("type: owned by: x", "type: and").foreach(q => assert(parser.parse(q).isLeft, q))
  }
  test("typeface:x does not match the type key") {
    val got = parser.parse("typeface:x")
    assert(got.swap.exists(_.contains("':x'")), got)
  }
  test("an unknown provider call names the known providers") {
    val got = parser.parse(":nope()")
    assert(got.swap.exists(e => e.contains("recent_documents") && e.contains("owned_by")), got)
  }

  // ---- renders and properties --------------------------------------------

  test("render round-trips a flat conjunction") {
    val q = parsed("type: table & 'sales'")
    assert(parsed(q.render) == q)
  }

  private val genQuery: Gen[Query] = {
    val word = Gen.oneOf("sales", "airlines", "alex", "bit", "q1")
    val leaf: Gen[Query] = Gen.oneOf(
      word.map(Text(_)),
      Gen.oneOf("type" -> "table", "badged" -> "endorsed", "owned by" -> "Alex",
        "badged by" -> "Mike").map { case (k, v) => FieldPred(k, v) },
      Gen.const(ProviderCall("recent_documents", Seq.empty)),
    )
    def tree(depth: Int): Gen[Query] =
      if (depth == 0) leaf
      else Gen.frequency(
        2 -> leaf,
        1 -> Gen.zip(tree(depth - 1), tree(depth - 1)).map { case (a, b) => And(a, b) },
        1 -> Gen.zip(tree(depth - 1), tree(depth - 1)).map { case (a, b) => Or(a, b) },
        1 -> tree(depth - 1).map(Not(_)),
      )
    tree(3)
  }

  test("property: rendered queries re-parse to the same AST") {
    forAllG(genQuery, n = 200) { q =>
      parser.parse(q.render) match {
        case Right(p) => assert(p == q, s"for rendered '${q.render}'")
        case Left(e)  => fail(s"'${q.render}' failed to parse: $e")
      }
    }
  }
}
