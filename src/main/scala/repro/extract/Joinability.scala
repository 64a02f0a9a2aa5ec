package repro.extract

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** One joinability edge between two datasets: the best column pair and its
  * estimated containment score (src column contained in dst column).
  */
final case class JoinEdge(srcTable: String, srcColumn: String,
                          dstTable: String, dstColumn: String, score: Double)

/** Aurum-style joinability graph built from MinHash column sketches.
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
    * Sketch lists are tiny (columns × k ints), so the pairwise sweep is
    * driver-side; the expensive part — the scans — happened at sketch time.
    */
  def edges(sketches: Seq[ColumnSketch], threshold: Double = DefaultThreshold): Seq[JoinEdge] = {
    val byTable = sketches.groupBy(_.table)
    val pairs = for {
      (ta, colsA) <- byTable.toSeq
      (tb, colsB) <- byTable.toSeq
      if ta != tb
      best <- bestPair(colsA, colsB)
      if best.score >= threshold
    } yield best
    pairs.sortBy(e => (e.srcTable, e.dstTable))
  }

  private def bestPair(colsA: Seq[ColumnSketch], colsB: Seq[ColumnSketch]): Option[JoinEdge] = {
    val candidates = for {
      a <- colsA
      b <- colsB
      if a.distinct > 0 && b.distinct > 0
    } yield JoinEdge(a.table, a.column, b.table, b.column, a.containmentIn(b))
    candidates.sortBy(e => (-e.score, e.srcColumn, e.dstColumn)).headOption
  }

  /** Edges as a DataFrame in the graph-provider contract shape. */
  def edgesDf(spark: SparkSession, edges: Seq[JoinEdge]): DataFrame = {
    import spark.implicits._
    edges.toDF("src_table", "src_column", "dst_table", "dst_column", "score")
  }

  /** Exact containment for *every* ordered column pair across tables, in
    * two shuffles instead of O(columns²) jobs: melt all columns to
    * `(table, column, value)` distinct triples (the melt the sketches
    * aggregate), self-join on value, count intersections per column pair,
    * divide by the source column's distinct count. Used as ground truth by
    * the T4 quality bench at scales where the per-pair
    * [[ColumnSketches.exactContainment]] would be too slow.
    */
  def exactContainmentsAll(spark: SparkSession,
                           tables: Seq[(String, DataFrame)]): Seq[JoinEdge] = {
    val melted = ColumnSketches.melt(tables).cache()

    try {
      val sizes = melted.groupBy("t", "c").agg(count(lit(1)).as("n"))
        .collect().map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap

      val a = melted.select(col("t").as("ta"), col("c").as("ca"), col("v"))
      val b = melted.select(col("t").as("tb"), col("c").as("cb"), col("v"))
      val inter = a.join(b, "v")
        .where(col("ta") =!= col("tb"))
        .groupBy("ta", "ca", "tb", "cb")
        .agg(count(lit(1)).as("m"))
        .collect()

      inter.map { r =>
        val (ta, ca, tb, cb, m) =
          (r.getString(0), r.getString(1), r.getString(2), r.getString(3), r.getLong(4))
        JoinEdge(ta, ca, tb, cb, m.toDouble / sizes((ta, ca)))
      }.toSeq
    } finally { melted.unpersist(); () }
  }

  /** Best exact edge per ordered table pair above `threshold`, built from
    * [[exactContainmentsAll]] — same semantics as [[edges]], exact scores.
    */
  def exactEdgesFast(spark: SparkSession, tables: Seq[(String, DataFrame)],
                     threshold: Double): Seq[JoinEdge] =
    exactContainmentsAll(spark, tables)
      .groupBy(e => (e.srcTable, e.dstTable))
      .values.map(_.maxBy(e => (e.score, e.srcColumn, e.dstColumn)))
      .filter(_.score >= threshold)
      .toSeq.sortBy(e => (e.srcTable, e.dstTable))

  /** Exact joinability edges via set intersection — the oracle the sketch
    * version is benchmarked against in T4.
    */
  def exactEdges(tables: Seq[(String, DataFrame)], threshold: Double): Seq[JoinEdge] = {
    val pairs = for {
      (ta, dfA) <- tables
      (tb, dfB) <- tables
      if ta != tb
      ca <- dfA.columns.toSeq
      cb <- dfB.columns.toSeq
    } yield JoinEdge(ta, ca, tb, cb, ColumnSketches.exactContainment(dfA, ca, dfB, cb))
    pairs
      .groupBy(e => (e.srcTable, e.dstTable))
      .values.map(_.maxBy(e => (e.score, e.srcColumn, e.dstColumn))) // deterministic best pair
      .filter(_.score >= threshold)
      .toSeq.sortBy(e => (e.srcTable, e.dstTable))
  }
}
