package repro.catalog

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic *data* for the pinned table artifacts of [[CatalogSynth]].
  *
  * The relationship providers (joinability graph, Figure 3) must be fed by
  * real extraction over real datasets, not by hand-written edges. This
  * generator materializes one DataFrame per pinned table artifact with
  * planted join keys:
  *
  *   - `region_id` (1..50) is shared by AIRLINES, SALES_PIPELINE,
  *     SALES_FORECAST, REGIONAL_SALES and CUSTOMER_BASE -> a joinability
  *     clique on region
  *   - `customer_id` links SALES_PIPELINE and CUSTOMER_BASE with high
  *     containment (every pipeline customer exists in the base)
  *
  * MinHash sketching + containment estimation over these tables yields the
  * edges the `joinable` provider surfaces. Deterministic in (rows, seed).
  */
object LakeSynth {
  val NRegions = 50L

  def tables(spark: SparkSession, rows: Long = 200, seed: Long = 7): Seq[(String, DataFrame)] = {
    import spark.implicits._
    val nCustomers = math.max(20L, rows / 2)

    val airlines = spark.range(rows).select(
      ($"id" + 1) as "airline_id",
      ($"id" % NRegions + 1) as "region_id",
      (rand(seed) * 500 + 1).cast(IntegerType) as "flights",
      element_at(array(lit("AA"), lit("UA"), lit("DL"), lit("WN")),
        ($"id" % 4 + 1).cast(IntegerType)) as "carrier",
    )

    val salesPipeline = spark.range(rows).select(
      ($"id" + 1000) as "deal_id",
      ($"id" % NRegions + 1) as "region_id",
      ($"id" % nCustomers + 1) as "customer_id",
      round(rand(seed + 1) * 100000, 2) as "amount",
    )

    val salesForecast = spark.range(NRegions * 4).select(
      ($"id" % NRegions + 1) as "region_id",
      ($"id" / NRegions + 1).cast(IntegerType) as "quarter",
      round(rand(seed + 2) * 500000, 2) as "forecast",
    )

    val regionalSales = spark.range(NRegions).select(
      ($"id" + 1) as "region_id",
      round(rand(seed + 3) * 1000000, 2) as "total",
    )

    val customerBase = spark.range(nCustomers).select(
      ($"id" + 1) as "customer_id",
      ($"id" % NRegions + 1) as "region_id",
      concat(lit("customer_"), $"id" + 1) as "customer_name",
    )

    Seq(
      "AIRLINES" -> airlines,
      "SALES_PIPELINE" -> salesPipeline,
      "SALES_FORECAST" -> salesForecast,
      "REGIONAL_SALES" -> regionalSales,
      "CUSTOMER_BASE" -> customerBase,
    )
  }

  /** Persist the lake as parquet dataset directories, one per table — the
    * layout `repro.jobs.ExtractMetadata` sketches and joins.
    */
  def writeLake(spark: SparkSession, root: String): Unit =
    tables(spark).foreach { case (name, df) =>
      df.write.mode("overwrite").parquet(s"$root/$name")
    }
}
