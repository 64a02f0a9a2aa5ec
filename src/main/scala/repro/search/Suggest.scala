package repro.search

import java.util.Locale
import repro.providers.ProviderContext
import repro.spec.{HumboldtSpec, MetadataProviderSpec, Surface}

/** One autocomplete suggestion: what to insert plus why. */
final case class Suggestion(completion: String, provider: String, detail: String)

/** Spec-driven autocompletion for the query interface (paper §5.3/§6.4:
  * "Humboldt uses metadata specifications to determine admissible
  * field-value pairs" and "provides autocomplete suggestions for admissible
  * prefixes and values as the user types").
  *
  * Admissible *keys* come from the spec; admissible *values* come from the
  * metadata itself, routed by the declared input type ("If a metadata
  * provider requires an input value, Humboldt can recommend plausible
  * values based on the specified input type").
  */
final class Suggest(spec: HumboldtSpec, ctx: ProviderContext) {

  /** Most values one value completion returns. */
  private val Limit = 20

  private def searchable: Seq[MetadataProviderSpec] = spec.providersOn(Surface.Search)

  /** All field keys the current spec admits, with their provider. */
  def admissibleKeys: Seq[Suggestion] =
    searchable.flatMap(p => p.searchKey.map(k => Suggestion(s"$k:", p.name, p.description)))

  /** Keys completing a typed prefix (`own` -> `owned by:`). */
  def completeKey(prefix: String): Seq[Suggestion] =
    admissibleKeys.filter(_.completion.toLowerCase(Locale.ROOT).startsWith(prefix.trim.toLowerCase(Locale.ROOT)))

  /** Provider names completing `:pre` for the prefix syntax. */
  def completeProviderCall(prefix: String): Seq[Suggestion] = {
    val p = QueryParser.normalize(prefix.stripPrefix(":"))
    searchable
      .filter(sp => QueryParser.normalize(sp.name).startsWith(p))
      .map(sp => Suggestion(s":${QueryParser.normalize(sp.name)}(" +
        sp.inputs.map(_.name).mkString(", ") + ")", sp.name, sp.description))
  }

  /** Plausible values for a field key, optionally narrowed by a typed value
    * prefix. Routed by the first declared input's type.
    */
  def valuesFor(key: String, prefix: String = ""): Seq[String] = {
    val p = searchable.find(_.searchKey.exists(_.equalsIgnoreCase(key)))
      .getOrElse(return Seq.empty)
    val inputType = p.inputs.headOption.map(_.inputType).getOrElse(return Seq.empty)
    valuesForType(inputType, prefix)
  }

  /** Plausible values for an input type, as a field value completes: the
    * first 20 in Spark's string order whose lower case starts with the
    * typed prefix, looked up in the catalog's value dictionary on the
    * driver. Free text and `artifact` (an id, bound from a selection) have
    * none. Exploration binds from [[repro.ui.Interface.explorationContext]].
    */
  def valuesForType(inputType: String, prefix: String = ""): Seq[String] =
    ctx.catalog.valueDictionary.complete(inputType, prefix, Limit)
}
