package repro.jobs

import org.apache.hadoop.fs.Path
import repro.catalog.CatalogTables
import repro.extract.{ColumnSketches, Embedding, Joinability}

/** spark-submit entrypoint: run the metadata-extraction substrate over a
  * materialized lake + catalog (as written by [[BuildLake]]).
  *
  * {{{
  * spark-submit --class repro.jobs.ExtractMetadata repro.jar <dir> [k] [threshold]
  * }}}
  *
  * Reads every dataset directory under `<dir>/lake` and produces
  * `<dir>/extracted/join_edges` (joinability graph from Theta sketches that
  * keep `k` hashes per column) and `<dir>/extracted/coordinates` (2-D
  * artifact embedding). A `<dir>` with no `lake` directory, or a `k` that
  * is not a power of two from 16 to 2^26, exits 2.
  */
object ExtractMetadata {
  def main(args: Array[String]): Unit = {
    val usage     = "usage: ExtractMetadata <dir> [k] [threshold]"
    val dir       = args.headOption.getOrElse(JobSession.usageExit("missing <dir>", usage))
    val k         = JobSession.argOrExit(args, 1, ColumnSketches.DefaultK, usage)(a =>
      1 << ColumnSketches.lgK(a.toInt))
    val threshold = JobSession.argOrExit(args, 2, 0.5, usage)(_.toDouble)

    val spark = JobSession("humboldt-extract")
    try {
      // Column sketches + joinability edges over the lake data itself, one
      // table per dataset directory, in name order.
      val lake = new Path(s"$dir/lake")
      val fs   = lake.getFileSystem(spark.sparkContext.hadoopConfiguration)
      if (!fs.exists(lake) || !fs.getFileStatus(lake).isDirectory)
        JobSession.usageExit(s"no lake at $dir/lake", usage)
      val names = fs.listStatus(lake).filter(_.isDirectory).map(_.getPath.getName).sorted.toSeq
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
