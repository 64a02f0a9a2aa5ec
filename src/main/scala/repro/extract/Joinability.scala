package repro.extract

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** One joinability edge between two datasets: the best column pair and its
  * estimated containment score (src column contained in dst column).
  */
final case class JoinEdge(srcTable: String, srcColumn: String,
                          dstTable: String, dstColumn: String, score: Double)

/** Aurum-style joinability graph built from Theta (bottom-k MinHash) column sketches.
  *
  * This substrate plays the role of the paper's relationship metadata
  * provider ("Joinable", Figure 2/3): given the sketches of all columns in
  * the lake it emits, per ordered table pair, the highest-containment column
  * pair above a threshold. The graph representation matches what the
  * provider spec declares (`representation: graph`), so the generated view
  * renders nodes (datasets) and edges (join paths).
  */
object Joinability {
  val DefaultThreshold = 0.5

  /** All joinability edges above `threshold` between *different* tables.
    * Sketch lists are tiny (columns × k hashes), so the pairwise sweep is
    * driver-side; the expensive part — the scans — happened at sketch time.
    */
  def edges(sketches: Seq[ColumnSketch], threshold: Double = DefaultThreshold): Seq[JoinEdge] = {
    val scored = for {
      a <- sketches
      b <- sketches
      if a.table != b.table && a.distinct > 0 && b.distinct > 0
    } yield JoinEdge(a.table, a.column, b.table, b.column, a.containmentIn(b))
    bestPairs(scored, threshold)
  }

  /** Per ordered table pair, the highest-scoring column pair if it reaches
    * `threshold`; a tie goes to the smallest `(srcColumn, dstColumn)`.
    * Sorted by `(srcTable, dstTable)`.
    */
  private def bestPairs(scored: Seq[JoinEdge], threshold: Double): Seq[JoinEdge] =
    scored.groupBy(e => (e.srcTable, e.dstTable)).values
      .map(_.minBy(e => (-e.score, e.srcColumn, e.dstColumn)))
      .filter(_.score >= threshold)
      .toSeq.sortBy(e => (e.srcTable, e.dstTable))

  /** Edges as a DataFrame in the graph-provider contract shape. */
  def edgesDf(spark: SparkSession, edges: Seq[JoinEdge]): DataFrame = {
    import spark.implicits._
    edges.toDF("src_table", "src_column", "dst_table", "dst_column", "score")
  }

  /** Exact containment |a ∩ b| / |a| over distinct non-null values for
    * every ordered column pair across tables with a non-empty intersection,
    * as one Spark plan: melt all columns to `(table, column, value)` distinct
    * triples (the melt the sketches aggregate), self-join on value, count
    * intersections per column pair and divide by the source column's
    * distinct count. The ground truth the sketch estimates, checked against
    * DuckDB in the tests and used by the T4 quality bench.
    */
  def exactContainmentsAll(tables: Seq[(String, DataFrame)]): Seq[JoinEdge] = {
    val melted = ColumnSketches.melt(tables)
    val a = melted.select(col("t").as("ta"), col("c").as("ca"), col("v"))
    val b = melted.select(col("t").as("tb"), col("c").as("cb"), col("v"))
    val sizes = a.groupBy("ta", "ca").agg(count(lit(1)).as("n"))
    a.join(b, "v")
      .where(col("ta") =!= col("tb"))
      .groupBy("ta", "ca", "tb", "cb")
      .agg(count(lit(1)).as("m"))
      .join(sizes, Seq("ta", "ca"))
      .select(col("ta"), col("ca"), col("tb"), col("cb"), col("m") / col("n"))
      .collect().toSeq
      .map(r => JoinEdge(r.getString(0), r.getString(1), r.getString(2), r.getString(3),
        r.getDouble(4)))
  }

  /** Best exact edge per ordered table pair above `threshold`, built from
    * [[exactContainmentsAll]] with the same best-pair rule as [[edges]].
    */
  def exactEdges(tables: Seq[(String, DataFrame)], threshold: Double): Seq[JoinEdge] =
    bestPairs(exactContainmentsAll(tables), threshold)
}
