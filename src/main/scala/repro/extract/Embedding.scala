package repro.extract

import org.apache.commons.math3.linear.{Array2DRowRealMatrix, EigenDecomposition}
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.catalog.CatalogTables

/** 2-D artifact embedding via principal components over usage/metadata
  * features.
  *
  * The paper's embedding view (§6.2) "expects the x and y coordinates to be
  * included in the data artifacts metadata", anticipating learned
  * representations. We build a real positional-encoding provider: each
  * artifact gets a feature vector (popularity, favorites, age, type one-hot,
  * endorsement), standardized, projected onto the top-2 principal components.
  * The covariance is accumulated with a single DataFrame aggregation (d is
  * tiny), eigenvectors come from commons-math3's `EigenDecomposition` on
  * the driver, and the projection itself is again a column expression — no
  * data leaves the cluster except the d×d covariance.
  */
object Embedding {

  /** Feature columns derived from the catalog, in a fixed order. */
  private def featureCols(catalog: CatalogTables): (DataFrame, Seq[String]) = {
    val df = catalog.enrichedArtifacts.select(
      col("artifact_id"),
      log1p(col("views")).as("f_views"),
      log1p(col("favorites")).as("f_favorites"),
      col("age_days").cast("double").as("f_age"),
      when(col("artifact_type") === "table", 1.0).otherwise(0.0).as("f_is_table"),
      when(col("artifact_type") === "visualization", 1.0).otherwise(0.0).as("f_is_viz"),
      when(col("artifact_type") === "workbook", 1.0).otherwise(0.0).as("f_is_wb"),
      when(col("artifact_type") === "dashboard", 1.0).otherwise(0.0).as("f_is_dash"),
      col("endorsements").cast("double").as("f_endorsed"),
    )
    (df, df.columns.filter(_.startsWith("f_")).toSeq)
  }

  /** Top-`top` eigenvectors of symmetric matrix `m`, largest eigenvalue
    * first, each with its largest-magnitude entry positive so that the
    * orientation does not depend on the solver.
    */
  private[extract] def topEigenvectors(m: Array[Array[Double]], top: Int): Seq[Array[Double]] = {
    val eig = new EigenDecomposition(new Array2DRowRealMatrix(m))
    val byValue = m.indices.sortBy(i => -eig.getRealEigenvalue(i))
    byValue.take(top).map { i =>
      val v = eig.getEigenvector(i).toArray
      val sign = math.signum(v.maxBy(x => math.abs(x)))
      v.map(_ * sign)
    }
  }

  /** Compute `(artifact_id, x, y)` for every artifact in the catalog. */
  def coordinates(catalog: CatalogTables): DataFrame = {
    val (feats, names) = featureCols(catalog)
    val d = names.size

    // Pass 1: means and stds for standardization.
    val statAggs = names.map(n => avg(col(n)).as(s"m_$n")) ++
      names.map(n => stddev_pop(col(n)).as(s"s_$n"))
    val statsRow = feats.agg(statAggs.head, statAggs.tail: _*).collect()(0)
    val means = names.indices.map(i => statsRow.getDouble(i)).toArray
    val stds  = names.indices.map { i =>
      val s = statsRow.getDouble(d + i); if (s < 1e-12) 1.0 else s
    }.toArray

    def std(i: Int): Column = (col(names(i)) - means(i)) / stds(i)

    // Pass 2: covariance upper triangle in one aggregation.
    val covAggs = for { i <- 0 until d; j <- i until d }
      yield avg(std(i) * std(j)).as(s"c_${i}_$j")
    val covRow = feats.agg(covAggs.head, covAggs.tail: _*).collect()(0)
    val cov = Array.ofDim[Double](d, d)
    var idx = 0
    for { i <- 0 until d; j <- i until d } {
      cov(i)(j) = covRow.getDouble(idx); cov(j)(i) = cov(i)(j); idx += 1
    }

    val Seq(pc1, pc2) = topEigenvectors(cov, 2)
    def project(v: Array[Double]): Column =
      (0 until d).map(i => std(i) * v(i)).reduce(_ + _)

    feats.select(
      col("artifact_id"),
      round(project(pc1), 6).as("x"),
      round(project(pc2), 6).as("y"),
    )
  }
}
