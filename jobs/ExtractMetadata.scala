package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.catalog.CatalogTables
import repro.extract.{ColumnSketches, Embedding, Joinability}

/** spark-submit entrypoint: run the metadata-extraction substrate over a
  * materialized lake + catalog (as written by [[BuildLake]]).
  *
  * {{{
  * spark-submit --class repro.jobs.ExtractMetadata repro.jar <dir> [minhashK] [threshold]
  * }}}
  *
  * Produces `<dir>/extracted/lake_catalog` (V2-source dataset metadata),
  * `<dir>/extracted/join_edges` (MinHash joinability graph) and
  * `<dir>/extracted/coordinates` (2-D artifact embedding).
  */
object ExtractMetadata {
  def main(args: Array[String]): Unit = {
    val usage     = "usage: ExtractMetadata <dir> [minhashK] [threshold]"
    val dir       = args.headOption.getOrElse(JobSession.usageExit("missing <dir>", usage))
    val k         = JobSession.argOrExit(args, 1, 64, usage)(_.toInt)
    val threshold = JobSession.argOrExit(args, 2, 0.5, usage)(_.toDouble)

    val spark = JobSession("humboldt-extract")
    try {
      // Dataset-level metadata via the DataSourceV2 (footer scans only).
      val lakeMeta = spark.read.format("humboldt-catalog").load(s"$dir/lake")
      lakeMeta.write.mode("overwrite").parquet(s"$dir/extracted/lake_catalog")

      // Column sketches + joinability edges over the lake data itself.
      val names = lakeMeta.select("name").collect().map(_.getString(0)).toSeq
      val tables = names.map(n => n -> spark.read.parquet(s"$dir/lake/$n"))
      val sketches = ColumnSketches.sketchAll(tables, k)
      val edges = Joinability.edges(sketches, threshold)
      Joinability.edgesDf(spark, edges)
        .write.mode("overwrite").parquet(s"$dir/extracted/join_edges")

      // Artifact embedding over the catalog.
      val cat = CatalogTables(
        artifacts = spark.read.parquet(s"$dir/catalog/artifacts"),
        users = spark.read.parquet(s"$dir/catalog/users"),
        teams = spark.read.parquet(s"$dir/catalog/teams"),
        badges = spark.read.parquet(s"$dir/catalog/badges"),
        lineage = spark.read.parquet(s"$dir/catalog/lineage"),
        usage = spark.read.parquet(s"$dir/catalog/usage"))
      Embedding.coordinates(cat)
        .write.mode("overwrite").parquet(s"$dir/extracted/coordinates")

      println(s"[ExtractMetadata] k=$k threshold=$threshold edges=${edges.size}")
      edges.foreach(e => println(
        f"  ${e.srcTable}%-16s.${e.srcColumn}%-12s -> ${e.dstTable}%-16s.${e.dstColumn}%-12s ${e.score}%.3f"))
    } finally spark.stop()
  }
}
