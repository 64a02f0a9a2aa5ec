package repro.catalog

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Value domains of the metadata catalog.
  *
  * The catalog models the metadata landscape of an interactive data system
  * (paper §1, §6): data *artifacts* (tables, visualizations, workbooks,
  * dashboards) plus the metadata the formative interviews surfaced as
  * discovery-relevant — ownership, teams, badges/endorsements, usage, and
  * lineage. These are the kinds the generator draws from; the spec layer
  * never sees them.
  */
object CatalogSchema {
  /** Artifact kinds, ordered by how they derive from each other:
    * table -> visualization -> dashboard; workbooks sit on tables.
    */
  val ArtifactTypes: Seq[String] = Seq("table", "visualization", "workbook", "dashboard")

  /** Badge kinds (paper Figure 2 "Badged"; the study uses `endorsed`). */
  val BadgeTypes: Seq[String] = Seq("endorsed", "warning", "deprecated")
}

/** The metadata catalog as a bundle of DataFrames.
  *
  * This is the substrate every metadata provider reads from. In the paper
  * these would be Sigma's production metadata services; here they are
  * synthesized by [[CatalogSynth]] or extracted from a parquet lake by the
  * `humboldt-catalog` DataSourceV2 (see DESIGN.md §1 for the substitution).
  */
final case class CatalogTables(
    artifacts: DataFrame,
    users: DataFrame,
    teams: DataFrame,
    badges: DataFrame,
    lineage: DataFrame,
    usage: DataFrame,
) {
  /** Cache all member frames — benches reuse the catalog across queries. */
  def cached(): CatalogTables =
    CatalogTables(artifacts.cache(), users.cache(), teams.cache(),
      badges.cache(), lineage.cache(), usage.cache())

  /** Artifacts enriched with ranking-relevant derived metadata fields:
    * `endorsements` (badge count) and `age_days`. Ranking weights in specs
    * reference these by name (paper §4.2, Listing 1 uses `favorite`/`views`),
    * and the embedding features read them too.
    */
  lazy val enrichedArtifacts: DataFrame = {
    val endorsed = badges
      .where(col("badge") === "endorsed")
      .groupBy(col("artifact_id").as("b_aid"))
      .agg(count(lit(1)).as("endorsements"))
    artifacts.join(endorsed, artifacts("artifact_id") === endorsed("b_aid"), "left")
      .drop("b_aid")
      .withColumn("endorsements", coalesce(col("endorsements"), lit(0L)))
      .withColumn("age_days",
        datediff(lit("2024-01-01").cast("date"), col("created_at")).cast("long"))
      // Every provider and every query element reads through this relation;
      // caching it keeps a multi-element search from recomputing the badge
      // aggregation once per element.
      .cache()
  }

  /** All tables by name, for oracle registration and persistence. */
  def byName: Map[String, DataFrame] = Map(
    "artifacts" -> artifacts, "users" -> users, "teams" -> teams,
    "badges" -> badges, "lineage" -> lineage, "usage" -> usage)
}
