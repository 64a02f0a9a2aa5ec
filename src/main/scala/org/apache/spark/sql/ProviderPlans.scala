package org.apache.spark.sql

import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan

/** A DataFrame over a logical plan that is not yet analysed. The one call
  * to `classic.Dataset.ofRows`, which is private to Spark's `sql` package.
  */
object ProviderPlans {
  def dataFrame(spark: SparkSession, plan: LogicalPlan): DataFrame =
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], plan)
}
