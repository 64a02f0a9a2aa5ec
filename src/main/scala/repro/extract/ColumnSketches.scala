package repro.extract

import org.apache.datasketches.memory.Memory
import org.apache.datasketches.theta.{CompactSketch, SetOperation, UpdateSketch}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** A Theta sketch of one column, plus its profile.
  *
  * This is the descriptor layer of the relationship-metadata substrate
  * (paper §2: "Most similarity computations operate on descriptors or
  * signatures of table columns (e.g., MinHash sketches ...)"). A Theta
  * sketch is a bottom-k MinHash: it keeps the k smallest hashes of the
  * column's values, so pairwise comparison is driver-side.
  *
  * @param table    dataset name the column belongs to
  * @param column   column name
  * @param distinct exact distinct count of non-null values
  * @param theta    the column's compact Theta sketch, empty for an empty column
  */
final case class ColumnSketch(table: String, column: String, distinct: Long, theta: CompactSketch) {

  /** Estimated containment of `this` in `other`: |∩| / |this|, with |∩| the
    * estimate of the two sketches' Theta intersection.
    */
  def containmentIn(other: ColumnSketch): Double =
    if (distinct == 0) 0.0
    else math.min(1.0,
      SetOperation.builder().buildIntersection().intersect(theta, other.theta).getEstimate / distinct)
}

/** Theta sketch construction via DataFrame scans.
  *
  * One aggregation over the whole lake sketches every column: the columns
  * are melted to distinct `(table, column, value)` triples and grouped by
  * `(table, column)`, with Spark's `theta_sketch_agg` (datasketches) next to
  * the exact count. Hashing uses datasketches' fixed seed, so estimates do
  * not depend on partitioning; the serialized bytes can, so compare
  * estimates, never bytes.
  */
object ColumnSketches {
  val DefaultK = 64

  /** log2 of the sketch size `k`: the number of hashes a sketch keeps, a
    * power of two from 16 to 2^26, the range `theta_sketch_agg` accepts.
    */
  def lgK(k: Int): Int = {
    val lg = Integer.numberOfTrailingZeros(k)
    require(k == 1 << lg && lg >= 4 && lg <= 26, s"sketch size $k is not a power of two from 16 to 2^26")
    lg
  }

  /** Every column of every dataset as distinct non-null `(t, c, v)`
    * triples, `v` the value cast to string.
    */
  private[extract] def melt(tables: Seq[(String, DataFrame)]): DataFrame =
    tables.flatMap { case (name, df) =>
      df.columns.toSeq.map(c =>
        df.select(lit(name).as("t"), lit(c).as("c"), col(c).cast("string").as("v")))
    }.reduce(_ unionByName _).na.drop().distinct()

  /** Sketch a single column of `df`. */
  def sketch(df: DataFrame, table: String, column: String, k: Int = DefaultK): ColumnSketch =
    sketchAll(Seq(table -> df.select(col(column))), k).head

  /** Sketch every column of every named dataset, in input order. A column
    * with no non-null value gets `distinct = 0` and an empty sketch.
    */
  def sketchAll(tables: Seq[(String, DataFrame)], k: Int = DefaultK): Seq[ColumnSketch] = {
    val lg = lgK(k)
    val columns = for ((name, df) <- tables; c <- df.columns.toSeq) yield (name, c)
    if (columns.isEmpty) return Seq.empty
    val found = melt(tables).groupBy("t", "c").agg(count(lit(1)), theta_sketch_agg(col("v"), lg))
      .collect().map(r => (r.getString(0), r.getString(1)) ->
        ColumnSketch(r.getString(0), r.getString(1), r.getLong(2),
          CompactSketch.heapify(Memory.wrap(r.getAs[Array[Byte]](3)))))
      .toMap
    val empty = UpdateSketch.builder().build().compact()
    columns.map { case (t, c) => found.getOrElse((t, c), ColumnSketch(t, c, 0L, empty)) }
  }
}
