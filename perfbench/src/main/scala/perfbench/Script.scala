package perfbench

import scala.util.Random
import org.apache.spark.sql.functions._
import repro.providers.ProviderContext
import repro.spec.{HumboldtSpec, InputSpec, MetadataProviderSpec, Representation, Surface, UseCaseSpec}
import repro.ui.Config

/** Catalog values the generated inputs draw from, read once after set-up. */
final case class Vocabulary(
    owners: IndexedSeq[String],
    badges: IndexedSeq[String],
    types: IndexedSeq[String],
    words: IndexedSeq[String],
    visualizations: IndexedSeq[Long],
)

object Vocabulary {
  def apply(ctx: ProviderContext): Vocabulary = {
    val cat = ctx.catalog
    def strings(df: org.apache.spark.sql.DataFrame): IndexedSeq[String] =
      df.collect().map(_.getString(0)).toIndexedSeq.sorted
    val owners = strings(cat.artifacts.groupBy("owner_id").agg(count(lit(1)).as("n"))
      .orderBy(col("n").desc, col("owner_id")).limit(200)
      .join(cat.users, col("owner_id") === col("user_id")).select("user_name"))
    // Name tokens such as REVENUE or SALES, lower-cased as a user types them.
    val words = strings(cat.artifacts
      .select(explode(split(lower(col("name")), "_")).as("w"))
      .where(col("w").rlike("^[a-z]{4,}$"))
      .groupBy("w").count().orderBy(col("count").desc, col("w")).limit(24).select("w"))
    val visualizations = cat.artifacts.where(col("artifact_type") === "visualization")
      .orderBy(col("views").desc, col("artifact_id")).limit(200)
      .select("artifact_id").collect().map(_.getLong(0)).toIndexedSeq
    Vocabulary(owners,
      strings(cat.badges.select("badge").distinct()),
      strings(cat.artifacts.select("artifact_type").distinct()),
      words, visualizations)
  }
}

/** Seeded input generation. The same seed gives the same script. */
final class Script(seed: Long, vocab: Vocabulary) {
  // java.util.Random's first draws barely differ between adjacent seeds, so
  // the seed is mixed first.
  private val rnd = new Random(new java.util.SplittableRandom(seed).nextLong())

  /** Zipf(s = 1.1) rank in [0, n): low ranks are drawn most often. */
  def zipf(n: Int): Int = {
    val weights = (1 to n).map(k => 1.0 / math.pow(k, 1.1))
    var u = rnd.nextDouble() * weights.sum
    var i = 0
    while (i < n - 1 && u >= weights(i)) { u -= weights(i); i += 1 }
    i
  }

  def pick[A](xs: IndexedSeq[A]): A = xs(rnd.nextInt(xs.size))
  def shuffle[A](xs: Seq[A]): Seq[A] = rnd.shuffle(xs)

  // ---- search -------------------------------------------------------------

  /** A query text of one class, with values drawn from the catalog. */
  def queryText(cls: String): String = cls match {
    case "flagship" => UseCaseSpec.flagshipQuery
    case "conj"     => s"type: ${pick(vocab.types)} & badged: ${pick(vocab.badges)}"
    case "disj_not" =>
      val Seq(a, b) = shuffle(vocab.badges).take(2)
      s"(badged: $a | badged: $b) & ! owned by: '${pick(vocab.owners)}'"
    case "call_text" => s":recent_documents() & '${pick(vocab.words)}'"
    case "text"      => s"'${pick(vocab.words)}'"
  }

  // ---- exploration and authoring -------------------------------------------

  /** A clicked visualization: Zipf over the 200 most viewed. */
  def clickedVisualization(): Long = vocab.visualizations(zipf(vocab.visualizations.size))

  /** One admin edit of the base spec: its name, the `ui.Config` op
    * (deferred, so that it runs inside the timed edit), and the query the
    * admin then types under the edited spec. An added provider's key
    * appears in that query. Every edit renders the same three providers on
    * the team home page, and every typed query has the same shape, so the
    * edit drawn does not decide what a session costs.
    */
  def edit(base: HumboldtSpec): (String, () => HumboldtSpec, String) = {
    val owner = pick(vocab.owners)
    val tpe = pick(vocab.types)
    val ownedQuery = s"owned by: '$owner' & type: $tpe"
    rnd.nextInt(5) match {
      case 0 =>
        ("hide", () => Config.hideOn(base, "Popular", Surface.Overview), ownedQuery)
      case 1 =>
        val front = pick(base.providers.map(_.name).toIndexedSeq)
        ("reorder", () => Config.reorder(base, Seq(front)), ownedQuery)
      case 2 =>
        ("add", () => Config.addProvider(base, Script.steward), s"steward: '$owner' & type: $tpe")
      case 3 =>
        ("remove", () => Config.removeProvider(base, "Created By"), ownedQuery)
      case _ =>
        val page = shuffle(Config.teamHomePage(base, "A Team"))
        ("home_page", () => Config.setTeamHomePage(base, "A Team", page), ownedQuery)
    }
  }
}

object Script {
  /** Value characters typed before the rest of a value is completed. */
  val TypedValueChars = 2

  /** The prefixes a user's keystrokes produce while typing `query`: a key
    * letter by letter, then the first `TypedValueChars` characters of its
    * value, after which the completed value is taken in one step. So each
    * `key: value` clause costs the same number of autocomplete lookups
    * whatever the value's length.
    */
  def keystrokes(query: String): Seq[String] = {
    val clause = """[a-z ]+:\s*('[^']*'|[^\s&|)]+)""".r
    val out = Seq.newBuilder[String]
    var at = 0
    clause.findAllMatchIn(query).foreach { m =>
      val typedTo = m.start(1) + math.min(TypedValueChars + (if (m.group(1).startsWith("'")) 1 else 0),
        m.group(1).length)
      (at + 1 to typedTo).foreach(n => out += query.take(n))
      out += query.take(m.end)
      at = m.end
    }
    (at + 1 to query.length).foreach(n => out += query.take(n))
    out.result()
  }

  val SearchClasses: Seq[String] = Seq("flagship", "conj", "disj_not", "call_text", "text", "scoped")

  /** AIRLINES, the lineage root. Every session clicks it and then a drawn
    * visualization: together their tabs cover all six representations. A
    * drawn table instead made the cost of a session depend mostly on which
    * table the seed drew (3.4-7.6 s per click).
    */
  val Airlines: Long = 1L

  /** The provider an admin adds: a new search key bound to an existing
    * endpoint, which is all §4.4 asks of an edit.
    */
  val steward: MetadataProviderSpec = MetadataProviderSpec(
    name = "Steward", category = "annotations",
    description = "Artifacts stewarded by a user",
    representation = Representation.ListRep, endpoint = "owned_by",
    inputs = Seq(InputSpec("user", "user", required = true)),
    visibility = Seq(Surface.Exploration, Surface.Search),
    searchKey = Some("steward"))
}
