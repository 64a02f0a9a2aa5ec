package repro.spec

import java.nio.file.{Files, Paths}
import java.util.Locale
import scala.collection.immutable.ListMap
import scala.util.Try

/** Data representations a metadata provider can return (paper §4.1, §6.2).
  *
  * The representation drives which discovery view is generated for the
  * provider (Figure 6): tiles, list, hierarchy, graph, categories, embedding.
  */
sealed abstract class Representation(val name: String)
object Representation {
  case object Tiles      extends Representation("tiles")
  case object ListRep    extends Representation("list")
  case object Hierarchy  extends Representation("hierarchy")
  case object Graph      extends Representation("graph")
  case object Categories extends Representation("categories")
  case object Embedding  extends Representation("embedding")

  val all: Seq[Representation] = Seq(Tiles, ListRep, Hierarchy, Graph, Categories, Embedding)

  def fromName(n: String): Either[String, Representation] =
    all.find(_.name == n.trim.toLowerCase(Locale.ROOT))
      .toRight(s"unknown representation '$n' (expected one of ${all.map(_.name).mkString(", ")})")
}

/** Where in the UI a provider surfaces (paper §4.1 "visibility ... in
  * different parts of the UI so that the data discovery system does not get
  * overloaded").
  */
sealed abstract class Surface(val name: String)
object Surface {
  case object Overview    extends Surface("overview")
  case object Exploration extends Surface("exploration")
  case object Search      extends Surface("search")

  val all: Seq[Surface] = Seq(Overview, Exploration, Search)

  def fromName(n: String): Either[String, Surface] =
    all.find(_.name == n.trim.toLowerCase(Locale.ROOT))
      .toRight(s"unknown surface '$n' (expected one of ${all.map(_.name).mkString(", ")})")
}

/** An input a provider needs before it can fetch data (paper §4.1: "the types
  * of input values and whether that input value is required ... need to be
  * specified").
  *
  * @param name      parameter name, also the key in exploration context
  * @param inputType semantic type used for input recommendation (paper §5.3);
  *                  one of "artifact", "table", "user", "team", "badge",
  *                  "artifact_type", "text". An "artifact" value is an
  *                  artifact id, bound from a selection; a "table" value
  *                  is a table's name
  * @param required  if true, the provider is only queryable once a value for
  *                  this input is available (from the user or a selected
  *                  artifact's metadata)
  */
final case class InputSpec(name: String, inputType: String, required: Boolean)

/** A `{field, weight}` ranking entry (paper §4.2, Listing 1). */
final case class RankingWeight(field: String, weight: Double)

/** Declarative description of one metadata provider (paper §4.1, Figure 3).
  *
  * The spec says *what* data to expect, never *how* it is computed — the
  * implementation is looked up by [[endpoint]] in the provider registry at
  * query time, keeping providers and UI fully decoupled.
  *
  * @param name           unique display name, disambiguates within a category
  * @param category       groups providers ("annotations", "interaction",
  *                       "relatedness", ...) to avoid overloading the UI
  * @param description    human-readable functionality summary
  * @param representation shape of the returned data, drives view generation
  * @param endpoint       registry key of the implementation to invoke
  * @param inputs         declared inputs, possibly required
  * @param visibility     surfaces the provider appears on
  * @param searchKey      the field name under which this provider is exposed
  *                       in the query language (e.g. "owned by"); None keeps
  *                       it out of the search grammar
  * @param ranking        provider-local ranking weights; empty falls back to
  *                       the spec's global ranking (paper §4.2)
  */
final case class MetadataProviderSpec(
    name: String,
    category: String,
    description: String,
    representation: Representation,
    endpoint: String,
    inputs: Seq[InputSpec] = Seq.empty,
    visibility: Seq[Surface] = Surface.all,
    searchKey: Option[String] = None,
    ranking: Seq[RankingWeight] = Seq.empty,
) {
  /** Inputs that must be bound before the provider can fetch. */
  def requiredInputs: Seq[InputSpec] = inputs.filter(_.required)

  /** Whether a team home page, which binds only the team, can show this provider. */
  def teamBindable: Boolean = requiredInputs.forall(_.inputType == "team")

  def visibleOn(surface: Surface): Boolean = visibility.contains(surface)
}

/** A complete Humboldt specification (paper §4): metadata providers, global
  * ranking fallback, and free-form application-specific content (§4.3) that
  * may reference providers by name (e.g. per-team home pages, Listing 2).
  */
final case class HumboldtSpec(
    providers: Seq[MetadataProviderSpec],
    globalRanking: Seq[RankingWeight] = Seq.empty,
    custom: ListMap[String, Json] = ListMap.empty,
) {
  def provider(name: String): Option[MetadataProviderSpec] = providers.find(_.name == name)

  /** Providers surfaced on a given UI surface, in spec order (spec order is
    * the user-visible ordering; reordering is a customization op, §4.4).
    */
  def providersOn(surface: Surface): Seq[MetadataProviderSpec] =
    providers.filter(_.visibleOn(surface))

  /** Effective ranking weights for a provider: local, else global fallback. */
  def effectiveRanking(p: MetadataProviderSpec): Seq[RankingWeight] =
    if (p.ranking.nonEmpty) p.ranking else globalRanking

  /** Structural validation: every error found, not just the first.
    *
    * Endpoint *resolution* is checked separately against the provider
    * registry (providers.ProviderBinding.validate) — the spec layer stays
    * decoupled from implementations, per the paper's design.
    */
  def validate: Seq[String] = {
    val dupNames = providers.groupBy(_.name).collect { case (n, ps) if ps.size > 1 => n }
    // The query grammar trims keys and matches them ignoring case.
    val dupKeys = providers.flatMap(_.searchKey).groupBy(_.trim.toLowerCase(Locale.ROOT))
      .collect { case (k, ks) if ks.size > 1 => k }
    val errs = Seq.newBuilder[String]
    dupNames.foreach(n => errs += s"duplicate provider name '$n'")
    dupKeys.foreach(k => errs += s"duplicate search key '$k'")
    providers.foreach { p =>
      if (p.name.trim.isEmpty) errs += "provider with empty name"
      if (p.endpoint.trim.isEmpty) errs += s"provider '${p.name}' has empty endpoint"
      // An empty visibility list is legal: it is the "hidden everywhere"
      // state end users reach by hiding a provider (§4.4), not an error.
      p.inputs.groupBy(_.name).collect { case (n, is) if is.size > 1 => n }
        .foreach(n => errs += s"provider '${p.name}' has duplicate input '$n'")
      p.searchKey.foreach { k =>
        if (k.trim.isEmpty) errs += s"provider '${p.name}' has blank search key"
        else if (k != k.trim) errs += s"provider '${p.name}' has search key '$k' with surrounding whitespace"
      }
    }
    (globalRanking ++ providers.flatMap(_.ranking)).foreach { rw =>
      if (rw.field.trim.isEmpty) errs += "ranking weight with empty field"
      if (!java.lang.Double.isFinite(rw.weight)) errs += s"non-finite weight for field '${rw.field}'"
    }
    // Custom content may reference providers by name (Listing 2); dangling
    // references are errors because the UI would render an empty section.
    customProviderRefs.filterNot(r => providers.exists(_.name == r))
      .foreach(r => errs += s"custom content references unknown provider '$r'")
    for ((team, names) <- teamHomePages; p <- names.flatMap(provider) if !p.teamBindable)
      errs += s"home page of '$team' lists provider '${p.name}', " +
        "which has a required input that is not of type 'team'"
    errs.result()
  }

  /** The `team_home_pages` custom content (Listing 2): each team with its page's providers. */
  def teamHomePages: Seq[(String, Seq[String])] = for {
    page <- custom.get("team_home_pages").flatMap(_.arr).getOrElse(Vector.empty)
    team <- page("team").flatMap(_.str)
  } yield team -> page("providers").flatMap(_.arr).getOrElse(Vector.empty).flatMap(_.str)

  /** Provider names referenced anywhere inside the custom content under a
    * `"provider"` or `"providers"` key, recursively.
    */
  def customProviderRefs: Seq[String] =
    custom.values.toSeq.flatMap(HumboldtSpec.providerRefs(_, _ => true)._2)
}

/** JSON (de)serialization for Humboldt specs — the on-disk format admins edit
  * (paper §4.4: "modifying the specification directly or through a UI").
  */
object HumboldtSpec {

  /** One walk over custom content for its provider references: each
    * `"provider"` string and each string of a `"providers"` array, at any
    * depth. Returns `j` without the references that fail `keep` (a failing
    * `"provider"` field is dropped), and the kept references in order.
    */
  def providerRefs(j: Json, keep: String => Boolean): (Json, Seq[String]) = j match {
    case Json.JObject(fields) =>
      val walked = fields.toSeq.flatMap {
        case ("provider", v @ Json.JString(s)) => if (keep(s)) Seq(("provider", v, Seq(s))) else Nil
        case ("providers", Json.JArray(xs)) =>
          val kept = xs.filter(_.str.forall(keep))
          Seq(("providers", Json.JArray(kept), kept.flatMap(_.str)))
        case (k, v) =>
          val (w, refs) = providerRefs(v, keep)
          Seq((k, w, refs))
      }
      (Json.JObject(ListMap(walked.map(f => f._1 -> f._2): _*)), walked.flatMap(_._3))
    case Json.JArray(xs) =>
      val walked = xs.map(providerRefs(_, keep))
      (Json.JArray(walked.map(_._1)), walked.flatMap(_._2))
    case other => (other, Nil)
  }

  def toJson(spec: HumboldtSpec): Json = {
    def inputJson(i: InputSpec) = Json.obj(
      "name" -> Json.str(i.name),
      "type" -> Json.str(i.inputType),
      "required" -> Json.bool(i.required),
    )
    def rankJson(r: RankingWeight) =
      Json.obj("field" -> Json.str(r.field), "weight" -> Json.num(r.weight))
    def provJson(p: MetadataProviderSpec) = Json.JObject(ListMap(
      Seq(
        "name" -> Json.str(p.name),
        "category" -> Json.str(p.category),
        "description" -> Json.str(p.description),
        "representation" -> Json.str(p.representation.name),
        "endpoint" -> Json.str(p.endpoint),
        "inputs" -> Json.JArray(p.inputs.map(inputJson).toVector),
        "visibility" -> Json.JArray(p.visibility.map(s => Json.str(s.name)).toVector),
      ) ++ p.searchKey.map(k => "searchKey" -> Json.str(k)).toSeq ++ Seq(
        "ranking" -> Json.JArray(p.ranking.map(rankJson).toVector),
      ): _*
    ))
    Json.obj(
      "providers" -> Json.JArray(spec.providers.map(provJson).toVector),
      "ranking" -> Json.JArray(spec.globalRanking.map(rankJson).toVector),
      "custom" -> Json.JObject(spec.custom),
    )
  }

  def fromJson(j: Json): Either[String, HumboldtSpec] = {
    def inputFrom(ij: Json): Either[String, InputSpec] =
      for {
        name <- ij("name").flatMap(_.str).toRight("input missing 'name'")
        tpe  <- ij("type").flatMap(_.str).toRight(s"input '$name' missing 'type'")
      } yield InputSpec(name, tpe, ij("required").flatMap(_.bool).getOrElse(false))

    def rankFrom(rj: Json): Either[String, RankingWeight] =
      for {
        field  <- rj("field").flatMap(_.str).toRight("ranking entry missing 'field'")
        weight <- rj("weight").flatMap(_.num).toRight(s"ranking '$field' missing numeric 'weight'")
      } yield RankingWeight(field, weight)

    def sequence[A](xs: Seq[Either[String, A]]): Either[String, Seq[A]] =
      xs.foldLeft[Either[String, Vector[A]]](Right(Vector.empty)) {
        case (acc, x) => for (a <- acc; v <- x) yield a :+ v
      }

    def provFrom(pj: Json): Either[String, MetadataProviderSpec] =
      for {
        name <- pj("name").flatMap(_.str).toRight("provider missing 'name'")
        cat  <- pj("category").flatMap(_.str).toRight(s"provider '$name' missing 'category'")
        repS <- pj("representation").flatMap(_.str)
                  .toRight(s"provider '$name' missing 'representation'")
        rep  <- Representation.fromName(repS)
        ep   <- pj("endpoint").flatMap(_.str).toRight(s"provider '$name' missing 'endpoint'")
        ins  <- sequence(pj("inputs").flatMap(_.arr).getOrElse(Vector.empty).map(inputFrom))
        vis  <- pj("visibility").flatMap(_.arr) match {
                  case None     => Right(Surface.all)
                  case Some(xs) => sequence(xs.map(v =>
                    v.str.toRight("visibility entry not a string").flatMap(Surface.fromName)))
                }
        rks  <- sequence(pj("ranking").flatMap(_.arr).getOrElse(Vector.empty).map(rankFrom))
      } yield MetadataProviderSpec(
        name = name,
        category = cat,
        description = pj("description").flatMap(_.str).getOrElse(""),
        representation = rep,
        endpoint = ep,
        inputs = ins,
        visibility = vis,
        searchKey = pj("searchKey").flatMap(_.str),
        ranking = rks,
      )

    for {
      provArr <- j("providers").flatMap(_.arr).toRight("spec missing 'providers' array")
      provs   <- sequence(provArr.map(provFrom))
      ranks   <- sequence(j("ranking").flatMap(_.arr).getOrElse(Vector.empty).map(rankFrom))
    } yield HumboldtSpec(
      providers = provs,
      globalRanking = ranks,
      custom = j("custom").flatMap(_.obj).getOrElse(ListMap.empty),
    )
  }

  def fromJsonString(s: String): Either[String, HumboldtSpec] =
    Json.parse(s).left.map(_.getMessage).flatMap(fromJson)

  /** Read a UTF-8 spec file; a missing file or malformed spec is a `Left`. */
  def read(path: String): Either[String, HumboldtSpec] =
    Try(Files.readString(Paths.get(path))).toEither.left.map(_.toString).flatMap(fromJsonString)
}
