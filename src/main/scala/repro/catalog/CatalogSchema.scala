package repro.catalog

import org.apache.spark.sql.{DataFrame, SqlTemplate}
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
  * synthesized by [[CatalogSynth]] (see DESIGN.md §1 for the substitution).
  */
final case class CatalogTables(
    artifacts: DataFrame,
    users: DataFrame,
    teams: DataFrame,
    badges: DataFrame,
    lineage: DataFrame,
    usage: DataFrame,
) {
  /** Cache all member frames — benches reuse the catalog across queries.
    * Each is cached as one partition: a single partition satisfies every
    * clustered distribution, so no aggregate, `distinct` or join above these
    * relations plans a shuffle, and every scan is one task (DESIGN.md §6).
    * `coalesce` merges the upstream partitions without redistributing
    * them, so per-partition `rand(seed)` draws the same catalog.
    */
  def cached(): CatalogTables = {
    def one(df: DataFrame): DataFrame = df.coalesce(1).cache()
    CatalogTables(one(artifacts), one(users), one(teams),
      one(badges), one(lineage), one(usage))
  }

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

  /** Downstream lineage of every artifact: `(root, artifact_id, parent_id,
    * depth)`, one row per path from `root`, bounded by
    * [[CatalogTables.LineageMaxDepth]] so cycles stop at the bound. One
    * `WITH RECURSIVE` query anchored at every artifact, built on the first
    * lineage fetch and cached, so a fetch is a filter on `root` rather than
    * a recursion of its own (DESIGN.md "Lineage").
    */
  lazy val lineageClosure: DataFrame =
    CatalogTables.Closure.bind(artifacts.sparkSession, byName, Map.empty).coalesce(1).cache()

  /** Usage events per team and artifact: `(team_name, artifact_id,
    * team_uses)`, counted over the team's members. Built on the first
    * team-activity fetch and cached as one partition, so a fetch is a
    * filter on `team_name` rather than a pass over every usage event
    * (DESIGN.md "Derived relations").
    */
  lazy val teamUsage: DataFrame =
    usage.join(users.select("user_id", "team_id"), "user_id")
      .join(teams.select("team_id", "team_name"), "team_id")
      .groupBy("team_name", "artifact_id")
      .agg(count(lit(1)).as("team_uses"))
      .coalesce(1).cache()

  /** Each input type's values and each artifact's own values, held on the
    * driver. Built on the first lookup with two Spark queries, so that
    * autocomplete, value binding and an exploration context are lookups
    * that start no job (DESIGN.md "Value dictionary").
    */
  lazy val valueDictionary: ValueDictionary = ValueDictionary(this)

  /** All tables by name, for oracle registration and persistence. */
  def byName: Map[String, DataFrame] = Map(
    "artifacts" -> artifacts, "users" -> users, "teams" -> teams,
    "badges" -> badges, "lineage" -> lineage, "usage" -> usage)
}

object CatalogTables {
  /** How deep a lineage walk goes below its root. */
  val LineageMaxDepth = 8

  private val Closure = new SqlTemplate(
    s"""WITH RECURSIVE walk(root, artifact_id, parent_id, depth) AS (
      |  SELECT artifact_id, artifact_id, CAST(NULL AS BIGINT), 0 FROM {artifacts}
      |  UNION ALL
      |  SELECT w.root, l.child_id, l.parent_id, w.depth + 1
      |  FROM {lineage} l JOIN walk w ON l.parent_id = w.artifact_id
      |  WHERE w.depth < $LineageMaxDepth
      |)
      |SELECT root, artifact_id, parent_id, depth FROM walk""".stripMargin)
}
