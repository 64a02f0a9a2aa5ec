package repro.extract

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** A k-minwise hash signature of one column, plus its profile.
  *
  * This is the descriptor layer of the relationship-metadata substrate
  * (paper §2: "Most similarity computations operate on descriptors or
  * signatures of table columns (e.g., MinHash sketches ...)"). Signatures
  * are tiny (k ints) so downstream pairwise comparison is driver-side.
  *
  * @param table    dataset name the column belongs to
  * @param column   column name
  * @param distinct exact distinct count of non-null values
  * @param sig      k minimum hash values, position i under seed i
  */
final case class ColumnSketch(table: String, column: String, distinct: Long, sig: Array[Int]) {
  def k: Int = sig.length

  /** Jaccard similarity estimate: fraction of agreeing signature slots. */
  def jaccard(other: ColumnSketch): Double = {
    require(k == other.k, s"sketch width mismatch: $k vs ${other.k}")
    if (k == 0) 0.0
    else sig.iterator.zip(other.sig.iterator).count { case (a, b) => a == b }.toDouble / k
  }

  /** Estimated |this ∩ other| from the Jaccard estimate and set sizes. */
  def intersectionEstimate(other: ColumnSketch): Double = {
    val j = jaccard(other)
    j / (1.0 + j) * (distinct + other.distinct)
  }

  /** Estimated containment of `this` in `other`: |∩| / |this|. */
  def containmentIn(other: ColumnSketch): Double =
    if (distinct == 0) 0.0
    else math.min(1.0, intersectionEstimate(other) / distinct)
}

/** MinHash sketch construction via DataFrame scans.
  *
  * One aggregation over the whole lake computes every column's k slots: the
  * columns are melted to distinct `(table, column, value)` triples and
  * grouped by `(table, column)`; slot i is `min(hash(i, value))`.
  * Deterministic — Spark's `hash` is Murmur3 with the slot index as a
  * leading mixing term.
  */
object ColumnSketches {
  val DefaultK = 64

  private def slot(i: Int, c: Column): Column = min(hash(lit(i), c)).as(s"h$i")

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
    * with no non-null value gets `distinct = 0` and all slots at
    * `Int.MaxValue`.
    */
  def sketchAll(tables: Seq[(String, DataFrame)], k: Int = DefaultK): Seq[ColumnSketch] = {
    val columns = for ((name, df) <- tables; c <- df.columns.toSeq) yield (name, c)
    if (columns.isEmpty) return Seq.empty
    val aggs = count(lit(1)).as("n") +: (0 until k).map(i => slot(i, col("v")))
    val found = melt(tables).groupBy("t", "c").agg(aggs.head, aggs.tail: _*).collect()
      .map(r => (r.getString(0), r.getString(1)) ->
        ColumnSketch(r.getString(0), r.getString(1), r.getLong(2),
          Array.tabulate(k)(i => r.getInt(i + 3))))
      .toMap
    columns.map { case (t, c) =>
      found.getOrElse((t, c), ColumnSketch(t, c, 0L, Array.fill(k)(Int.MaxValue)))
    }
  }
}
