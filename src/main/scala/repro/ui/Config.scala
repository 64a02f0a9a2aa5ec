package repro.ui

import repro.spec._

/** Customization operations (paper §4.4): pure spec-to-spec transforms.
  *
  * "Administrators ... can configure which metadata providers they want to
  * use and where these providers are available ... individuals ... can hide
  * and reorder the metadata providers ... a team manager ... might even
  * configure the recommendations ... for their team members." Every op here
  * returns a new spec; regenerating the interface from it is how the UI
  * updates — no UI code changes, which is the point of the framework.
  */
object Config {

  /** Make a provider visible on a surface. No-op if unknown name. */
  def showOn(spec: HumboldtSpec, providerName: String, surface: Surface): HumboldtSpec =
    mapProvider(spec, providerName) { p =>
      if (p.visibility.contains(surface)) p
      else p.copy(visibility = p.visibility :+ surface)
    }

  /** Hide a provider from a surface (the end-user "hide" op). */
  def hideOn(spec: HumboldtSpec, providerName: String, surface: Surface): HumboldtSpec =
    mapProvider(spec, providerName)(p => p.copy(visibility = p.visibility.filterNot(_ == surface)))

  /** Reorder providers; names not mentioned keep their relative order after
    * the mentioned ones (the end-user "reorder" op).
    */
  def reorder(spec: HumboldtSpec, order: Seq[String]): HumboldtSpec = {
    val byName = spec.providers.map(p => p.name -> p).toMap
    val front  = order.flatMap(byName.get)
    val rest   = spec.providers.filterNot(p => order.contains(p.name))
    spec.copy(providers = front ++ rest)
  }

  /** Add a provider entry (the developer op for a newly implemented
    * endpoint). Fails if the name already exists.
    */
  def addProvider(spec: HumboldtSpec, p: MetadataProviderSpec): HumboldtSpec = {
    require(spec.provider(p.name).isEmpty, s"provider '${p.name}' already exists")
    spec.copy(providers = spec.providers :+ p)
  }

  /** Remove a provider and every custom-content reference to it, as
    * `HumboldtSpec.customProviderRefs` finds them.
    */
  def removeProvider(spec: HumboldtSpec, name: String): HumboldtSpec =
    spec.copy(providers = spec.providers.filterNot(_.name == name),
      custom = spec.custom.map { case (k, v) => k -> HumboldtSpec.providerRefs(v, _ != name)._1 })

  /** Set a team's home page providers (Task 4 of the study; Listing 2). Unknown
    * names and providers that need a non-team input are rejected so the page renders.
    */
  def setTeamHomePage(spec: HumboldtSpec, team: String,
                      providerNames: Seq[String]): HumboldtSpec = {
    val unfit = providerNames.filterNot(n => spec.provider(n).exists(_.teamBindable))
    require(unfit.isEmpty, s"unknown providers, or ones needing a non-team input, " +
      s"for home page: ${unfit.mkString(", ")}")
    val entry = Json.obj(
      "team" -> Json.str(team),
      "providers" -> Json.JArray(providerNames.map(Json.str).toVector),
    )
    val existing = spec.custom.get("team_home_pages").flatMap(_.arr).getOrElse(Vector.empty)
    val updated  = existing.filterNot(_.apply("team").flatMap(_.str).contains(team)) :+ entry
    spec.copy(custom = spec.custom.updated("team_home_pages", Json.JArray(updated)))
  }

  /** The providers currently on a team's home page, in order. */
  def teamHomePage(spec: HumboldtSpec, team: String): Seq[String] =
    spec.teamHomePages.find(_._1 == team).fold(Seq.empty[String])(_._2)

  private def mapProvider(spec: HumboldtSpec, name: String)(
      f: MetadataProviderSpec => MetadataProviderSpec): HumboldtSpec =
    spec.copy(providers = spec.providers.map(p => if (p.name == name) f(p) else p))
}
