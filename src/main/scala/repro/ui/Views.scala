package repro.ui

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.providers.Contracts
import repro.ranking.Ranking
import repro.spec.{MetadataProviderSpec, RankingWeight, Representation}

/** A generated discovery view — the data half of a UI component.
  *
  * The paper's six visual representations (§6.2, Figure 6) are generated
  * from the provider's declared representation. We reproduce the generation
  * machinery: each view model is a typed object holding the DataFrames a
  * renderer would bind to. Everything user-visible about the view (ordering,
  * rollups, node/edge split) is computed here, driven only by the spec.
  */
sealed trait ViewModel {
  def provider: MetadataProviderSpec
  def representation: Representation = provider.representation

  /** The artifact ids shown by this view — the scope used when a search
    * query is applied as a *filter* (§5.3).
    */
  def artifactIds: DataFrame
}

/** Grid of ranked boxes ("ordered via specified ranking weights"). */
final case class TilesView(provider: MetadataProviderSpec, data: DataFrame) extends ViewModel {
  def artifactIds: DataFrame = data.select(col("artifact_id").cast("long")).distinct()
}

/** Ordered list; re-sortable "by clicking any columns in the list view". */
final case class ListView(provider: MetadataProviderSpec, data: DataFrame) extends ViewModel {
  def artifactIds: DataFrame = data.select(col("artifact_id").cast("long")).distinct()

  /** The click-a-column interaction: same rows, new comparator. */
  def sortedBy(column: String, ascending: Boolean = true): DataFrame =
    if (ascending) data.orderBy(col(column).asc, col("artifact_id"))
    else data.orderBy(col(column).desc, col("artifact_id"))
}

/** Tree of one-to-many metadata; rows carry (artifact_id, parent_id, depth).
  * "Supports traversing hierarchies of arbitrary depths."
  */
final case class HierarchyView(provider: MetadataProviderSpec, data: DataFrame) extends ViewModel {
  def artifactIds: DataFrame = data.select(col("artifact_id").cast("long")).distinct()

  /** Children of one node, ranked — the expand interaction. */
  def childrenOf(parentId: Long): DataFrame =
    data.where(col("parent_id") === parentId)

  def maxDepth: Int =
    data.agg(coalesce(max(col("depth")), lit(0))).collect()(0).getInt(0)
}

/** Node-link view: "expects the metadata to contain information about how
  * [artifacts] are connected" — weighted edges, and the nodes they connect.
  */
final case class GraphView(provider: MetadataProviderSpec, edges: DataFrame) extends ViewModel {
  /** The artifact ids at either end of an edge. */
  def nodes: DataFrame = Contracts.artifactIds(Representation.Graph, edges)
  def artifactIds: DataFrame = nodes
}

/** Category overview plus ranked members per category. */
final case class CategoriesView(provider: MetadataProviderSpec,
                                rollup: DataFrame, members: DataFrame) extends ViewModel {
  def artifactIds: DataFrame = members.select(col("artifact_id").cast("long")).distinct()

  /** Drill into one category — the category-click interaction. */
  def membersOf(category: String): DataFrame =
    members.where(col("category") === category)
}

/** 2-D scatter of artifacts; "expects the x and y coordinates to be
  * included in the data artifacts metadata".
  */
final case class EmbeddingViewModel(provider: MetadataProviderSpec,
                                    points: DataFrame) extends ViewModel {
  def artifactIds: DataFrame = points.select(col("artifact_id").cast("long")).distinct()

  /** Rectangular brush selection on the canvas. */
  def brush(x0: Double, y0: Double, x1: Double, y1: Double): DataFrame =
    points.where(col("x").between(x0, x1) && col("y").between(y0, y1))
}

/** Constructs the right [[ViewModel]] for a provider's output. */
object Views {

  /** Build a view from a provider result, applying ranking weights where
    * the representation is rank-ordered. Contract-validates first, so a
    * mis-shaped provider fails here, not in a renderer.
    */
  def build(provider: MetadataProviderSpec, df: DataFrame,
            weights: Seq[RankingWeight]): ViewModel = {
    Contracts.validate(provider.representation, df)
    provider.representation match {
      case Representation.Tiles =>
        TilesView(provider, Ranking.ranked(df, weights))
      case Representation.ListRep =>
        ListView(provider, Ranking.ranked(df, weights))
      case Representation.Hierarchy =>
        // Depth-major, then score: parents appear before their children.
        val scored = Ranking.scored(df, weights)
        HierarchyView(provider,
          scored.orderBy(col("depth"), col(Ranking.ScoreColumn).desc, col("artifact_id")))
      case Representation.Graph =>
        GraphView(provider, df.orderBy(col("weight").desc))
      case Representation.Categories =>
        val scored = Ranking.scored(df, weights)
        val rollup = scored.groupBy("category")
          .agg(count(lit(1)).as("n"), sum(Ranking.ScoreColumn).as("total_score"))
          .orderBy(col("n").desc, col("category"))
        CategoriesView(provider, rollup,
          scored.orderBy(col("category"), col(Ranking.ScoreColumn).desc, col("artifact_id")))
      case Representation.Embedding =>
        EmbeddingViewModel(provider, Ranking.scored(df, weights))
    }
  }
}
