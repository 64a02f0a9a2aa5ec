package repro.ranking

import java.util.Locale
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.spec.RankingWeight

/** Numeric, spec-driven ranking (paper §4.2, Listing 1).
  *
  * "Values of metadata fields are multiplied with the ranking factor, which
  * results in an overall ranking score that can be combined between metadata
  * providers." The score is a Catalyst column expression, so ranking
  * executes inside the same optimized plan as the provider's fetch — no
  * collect-and-sort in the app layer, and changing weights never touches
  * code, only the spec.
  */
object Ranking {
  val ScoreColumn = "score"

  /** `Σ coalesce(field, 0) * weight` over the weights whose field exists in
    * `df`. Fields a provider does not produce contribute zero — that is what
    * makes one global weight list reusable across providers with different
    * metadata fields (the paper's global-fallback semantics).
    */
  def scoreExpr(weights: Seq[RankingWeight], df: DataFrame): Column = {
    val present = df.columns.map(_.toLowerCase(Locale.ROOT)).toSet
    val terms = weights.collect {
      case RankingWeight(field, w) if present.contains(field.toLowerCase(Locale.ROOT)) =>
        coalesce(col(field).cast("double"), lit(0.0)) * w
    }
    if (terms.isEmpty) lit(0.0) else terms.reduce(_ + _)
  }

  /** Attach the score column (idempotent on column name). */
  def scored(df: DataFrame, weights: Seq[RankingWeight]): DataFrame =
    df.withColumn(ScoreColumn, scoreExpr(weights, df))

  /** Score and order, breaking ties on artifact id for determinism. The
    * frame carries `artifact_id`: its callers, the tiles and list views,
    * are built only after `Views.build` checks that contract.
    */
  def ranked(df: DataFrame, weights: Seq[RankingWeight]): DataFrame =
    scored(df, weights).orderBy(col(ScoreColumn).desc, col("artifact_id"))
}
