package repro.search

import java.util.Locale
import java.util.regex.Pattern
import scala.util.parsing.combinator.RegexParsers
import repro.spec.{HumboldtSpec, Surface}

/** Parser for the Humboldt query language.
  *
  * The grammar is not fixed: the field keys are compiled from the
  * specification ("query parameters are compiled from the specification",
  * paper abstract), so adding a provider with a `searchKey` immediately
  * extends the language.
  *
  * {{{
  * or      := and (('|' | 'or') and)*
  * and     := unary (('&' | 'and')? unary)*     -- juxtaposition conjoins
  * unary   := ('!' | 'not') unary | '(' or ')' | element
  * element := KEY (QUOTED | WORD)                -- pill syntax
  *          | ':' NAME ('(' args ')')?           -- prefix syntax
  *          | QUOTED | WORD                      -- free text
  * args    := (',' | QUOTED | ARG)*
  * }}}
  *
  * A KEY is a spec key and a ':', in any case, with any whitespace between
  * its words and before the ':', but never inside a longer word
  * (`typeface:`); the longest key wins. WORD and NAME are runs of characters
  * other than whitespace and `()&|!:'"`, so `-a` is a word, not a negation.
  * A WORD is not a KEY, nor `and`, `or` or `not` in any case (`android` is a
  * word). QUOTED is `'...'` or `"..."`, kept verbatim. NAME follows the ':'
  * directly and names a search-visible provider. An ARG runs up to the next
  * `,` or `)` and is trimmed.
  */
final class QueryParser(searchKeys: Seq[String], providerNames: Seq[String]) {
  private val grammar = new QueryParser.Grammar(searchKeys, providerNames)
  def parse(input: String): Either[String, Query] = grammar.query(input)
}

object QueryParser {
  /** Provider names normalize to lowercase snake case for prefix calls
    * (`Recent Documents` is callable as `:recent_documents(...)`).
    */
  def normalize(name: String): String = name.trim.toLowerCase(Locale.ROOT).replaceAll("[\\s-]+", "_")

  /** Build the parser the specification implies: field keys are the
    * search-visible providers' `searchKey`s, callable names are all
    * search-visible provider names.
    */
  def fromSpec(spec: HumboldtSpec): QueryParser = {
    val searchable = spec.providersOn(Surface.Search)
    new QueryParser(searchable.flatMap(_.searchKey), searchable.map(p => normalize(p.name)))
  }

  /** One production per line of the grammar above. */
  private final class Grammar(searchKeys: Seq[String], providerNames: Seq[String]) extends RegexParsers {
    // Whitespace as `Char.isWhitespace` defines it, here and in the word classes.
    override protected val whiteSpace = """\p{javaWhitespace}+""".r

    def query(input: String): Either[String, Query] = parseAll(or, input) match {
      case Success(q, _) => Right(q)
      case Error(msg, next) => Left(s"$msg at offset ${next.offset}")
      case Failure(_, next) =>
        Left(s"unexpected ${if (next.atEnd) "end of query" else s"'${next.first}'"} at offset ${next.offset}")
    }

    /** Each spec key, longest first, with the pattern of it and its ':'. */
    private val keys = searchKeys.map(_.trim).filter(_.nonEmpty).sortBy(k => -k.length).map { k =>
      val words = k.split("\\s+").map(Pattern.quote(_) + """(?![\p{javaLetterOrDigit}_])""")
      k -> ("(?iu)" + words.mkString("""\p{javaWhitespace}+""") + """\p{javaWhitespace}*:""").r
    }
    // All keys as one alternation, longest first, so the guard in `bare` is
    // one regex match per word rather than one per key.
    private val anyKey: Parser[String] =
      if (keys.isEmpty) failure("no search keys")
      else keys.map { case (_, re) => s"(?:$re)" }.mkString("|").r
    private val key = anyKey ^^ (typed => keys.collectFirst { case (k, re) if re.matches(typed) => k }.get)

    private val quoted = "'[^']*'|\"[^\"]*\"".r ^^ (q => q.substring(1, q.length - 1))
    private val bare = not(anyKey) ~> """[^\p{javaWhitespace}()&|!:'"]+""".r
    private val word = bare.filter(w => !Seq("and", "or", "not").exists(w.equalsIgnoreCase))
    private def op(symbol: String, name: String) = symbol | bare.filter(_.equalsIgnoreCase(name))

    private val args = rep("," ^^^ None | quoted ^^ (Some(_)) |
      """[^,)'"][^,)]*""".r ^^ (a => Some(a.trim).filter(_.nonEmpty))) <~ ")" ^^ (_.flatten)
    private val call = """:[^\p{javaWhitespace}()&|!:'"]+""".r ~ opt("(" ~>! args) >> {
      case name ~ passed =>
        val n = normalize(name.tail)
        if (providerNames.map(normalize).contains(n)) success(Query.ProviderCall(n, passed.getOrElse(Nil)))
        else err(s"unknown provider '$name' — known: ${providerNames.sorted.mkString(", ")}")
    }

    private val value = (quoted | word).withFailureMessage("expected a value after the key")
    private val element: Parser[Query] =
      key ~! value ^^ { case k ~ v => Query.FieldPred(k, v) } | call | (quoted | word) ^^ Query.Text

    private lazy val unary: Parser[Query] =
      op("!", "not") ~> unary ^^ Query.Not | "(" ~> or <~ ")" | element
    private lazy val and = chainl1(unary, opt(op("&", "and")) ^^^ Query.And)
    private lazy val or: Parser[Query] = chainl1(and, op("|", "or") ^^^ Query.Or)
  }
}
