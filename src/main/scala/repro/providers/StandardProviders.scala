package repro.providers

import java.util.Locale
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.catalog.CatalogTables
import repro.spec.Representation
import repro.spec.Representation._

/** The standard provider implementations wired into the use case (paper §6.1,
  * Figure 2). Each is a small DataFrame program over the catalog; none knows
  * anything about views, search, or ranking weights — those are applied by
  * the layers above, driven by the spec.
  */
object StandardProviders {

  /** Columns every artifact-shaped provider result carries. */
  private val artifactCols: Seq[String] = Seq(
    "artifact_id", "name", "artifact_type", "owner_id", "team_id",
    "created_at", "views", "favorites", "description", "endorsements", "age_days")

  private def base(ctx: ProviderContext): DataFrame =
    ctx.enrichedArtifacts.select(artifactCols.map(col): _*)

  /** Join a user-name input down to artifact rows via an id column. */
  private def byUserName(ctx: ProviderContext, userName: String, fk: Column,
                         from: DataFrame): DataFrame = {
    val u = ctx.catalog.users.where(col("user_name") === userName)
      .select(col("user_id").as("match_user_id"))
    from.join(u, fk === col("match_user_id"), "inner").drop("match_user_id")
  }

  /** Most recently created artifacts (Figure 2 "Recents"). */
  object Recents extends Provider {
    val endpoint = "recents"
    val representation: Representation = ListRep
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame =
      base(ctx).orderBy(col("created_at").desc, col("artifact_id"))
  }

  /** Most viewed artifacts (Figure 2 "Popular"). */
  object Frequent extends Provider {
    val endpoint = "frequent"
    val representation: Representation = Tiles
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame =
      base(ctx).orderBy(col("views").desc, col("artifact_id"))
  }

  /** Artifacts owned/created by a named user (Figure 2 "Owned By"). */
  object OwnedBy extends Provider {
    val endpoint = "owned_by"
    val representation: Representation = ListRep
    override val needs: Set[String] = Set("user")
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame =
      byUserName(ctx, need(inputs, "user"), col("owner_id"), base(ctx))
  }

  /** Artifacts carrying a badge; optional `badge` input narrows the kind,
    * optional `user` input narrows to a badger (Figure 2 "Badged";
    * flagship query's `badged: endorsed badged by: 'Mike'`).
    */
  object Badged extends Provider {
    val endpoint = "badged"
    val representation: Representation = Categories
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      var b = ctx.catalog.badges
      inputs.get("badge").foreach(v => b = b.where(col("badge") === v))
      inputs.get("user").foreach { name =>
        b = byUserName(ctx, name, col("badged_by"), b)
      }
      val badged = b.select(col("artifact_id").as("badged_aid"), col("badge").as("category"))
        .distinct()
      base(ctx).join(badged, col("artifact_id") === col("badged_aid"), "inner")
        .drop("badged_aid")
    }
  }

  /** Artifacts badged *by* a named user — exposed separately so the query
    * language gets a `badged by:` field.
    */
  object BadgedBy extends Provider {
    val endpoint = "badged_by"
    val representation: Representation = ListRep
    override val needs: Set[String] = Set("user")
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      val name = need(inputs, "user")
      val b = byUserName(ctx, name, col("badged_by"), ctx.catalog.badges)
        .select(col("artifact_id").as("badged_aid")).distinct()
      base(ctx).join(b, col("artifact_id") === col("badged_aid"), "inner").drop("badged_aid")
    }
  }

  /** Artifacts of one type — `type: table` in the query language. */
  object OfType extends Provider {
    val endpoint = "of_type"
    val representation: Representation = Categories
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      val df = inputs.get("artifact_type") match {
        case Some(t) => base(ctx).where(col("artifact_type") === t)
        case None    => base(ctx)
      }
      df.withColumn("category", col("artifact_type"))
    }
  }

  /** Artifacts belonging to a named team (team home pages, Listing 2). */
  object TeamDocs extends Provider {
    val endpoint = "team_docs"
    val representation: Representation = Tiles
    override val needs: Set[String] = Set("team")
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      val team = need(inputs, "team")
      val t = ctx.catalog.teams.where(col("team_name") === team)
        .select(col("team_id").as("match_team_id"))
      base(ctx).join(t, col("team_id") === col("match_team_id"), "inner")
        .drop("match_team_id")
    }
  }

  /** Most-used artifacts among a team's members — "which dashboards are my
    * teammates working on?" (paper §1). The team's rows of the catalog's
    * cached usage counts ([[repro.catalog.CatalogTables.teamUsage]]),
    * most used first.
    */
  object TeamFrequent extends Provider {
    val endpoint = "team_frequent"
    val representation: Representation = Tiles
    override val needs: Set[String] = Set("team")
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      val counts = ctx.catalog.teamUsage.where(col("team_name") === need(inputs, "team"))
        .drop("team_name")
      base(ctx).join(counts, "artifact_id")
        .orderBy(col("team_uses").desc, col("artifact_id"))
    }
  }

  /** Downstream lineage of a selected artifact as a hierarchy (Figure 6
    * "hierarchy": table -> visualization -> dashboard). The rows are the
    * selection's part of the catalog's cached lineage closure
    * ([[repro.catalog.CatalogTables.lineageClosure]]): a node reached along
    * several paths appears once per path, and cycles stop at `maxDepth`.
    * The DuckDB recursive CTE in tests is the oracle.
    */
  object LineageChildren extends Provider {
    val endpoint = "lineage_children"
    val representation: Representation = Hierarchy
    override val needs: Set[String] = Set("artifact")
    val maxDepth: Int = CatalogTables.LineageMaxDepth

    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      val rootId = need(inputs, "artifact").toLong
      val walk = ctx.catalog.lineageClosure.where(col("root") === rootId).drop("root")
      base(ctx).join(walk, "artifact_id")
    }
  }

  /** Joinability graph around an input table (Figure 3): the edges of
    * [[ProviderContext.joinEdgesById]] incident to the table, matched
    * case-insensitively. Requires the extraction substrate's edges; the
    * node ids are artifact ids so graph results compose with search.
    */
  object Joinable extends Provider {
    val endpoint = "joinable"
    val representation: Representation = Graph
    override val needs: Set[String] = Set("table")
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      val table = need(inputs, "table").toLowerCase(Locale.ROOT)
      val edges = ctx.joinEdgesById.getOrElse(
        throw new IllegalStateException(
          "joinable provider needs extracted join edges in ProviderContext"))
      edges.where(lower(col("src_table")) === table || lower(col("dst_table")) === table)
    }
  }

  /** Embedding scatter of all artifacts (Figure 6 "embedding"). */
  object EmbeddingView extends Provider {
    val endpoint = "embedding"
    val representation: Representation = Embedding
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      val coords = ctx.coordinates.getOrElse(
        throw new IllegalStateException(
          "embedding provider needs extracted coordinates in ProviderContext"))
      base(ctx).join(coords.withColumnRenamed("artifact_id", "c_aid"),
        col("artifact_id") === col("c_aid"), "inner").drop("c_aid")
    }
  }

  /** Case-insensitive substring match over name and description — the
    * conventional text search the query language composes with metadata
    * elements (paper §5.3).
    */
  object TextMatch extends Provider {
    val endpoint = "text_match"
    val representation: Representation = ListRep
    override val needs: Set[String] = Set("q")
    def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
      val q = need(inputs, "q").toLowerCase(Locale.ROOT)
      base(ctx).where(
        lower(col("name")).contains(q) || lower(col("description")).contains(q))
    }
  }

  /** All standard implementations, in registry order. */
  val all: Seq[Provider] = Seq(
    Recents, Frequent, OwnedBy, Badged, BadgedBy, OfType, TeamDocs,
    TeamFrequent, LineageChildren, Joinable, EmbeddingView, TextMatch)
}
