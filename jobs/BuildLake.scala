package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.catalog.{CatalogSynth, LakeSynth}

/** spark-submit entrypoint: materialize the synthetic lake and catalog.
  *
  * {{{
  * spark-submit --class repro.jobs.BuildLake repro.jar <outDir> [sf] [seed]
  * }}}
  *
  * Writes `<outDir>/lake/<DATASET>/` parquet datasets (the input of
  * [[ExtractMetadata]]) and `<outDir>/catalog/<table>/` parquet dumps of the
  * metadata catalog.
  */
object BuildLake {
  def main(args: Array[String]): Unit = {
    val usage = "usage: BuildLake <outDir> [sf] [seed]"
    val out   = args.headOption.getOrElse(JobSession.usageExit("missing <outDir>", usage))
    val sf    = JobSession.argOrExit(args, 1, 0.1, usage)(_.toDouble)
    val seed  = JobSession.argOrExit(args, 2, 42L, usage)(_.toLong)

    val spark = JobSession("humboldt-build-lake")
    try {
      LakeSynth.writeLake(spark, s"$out/lake")
      val cat = CatalogSynth(spark, sf, seed)
      cat.byName.foreach { case (name, df) =>
        df.write.mode("overwrite").parquet(s"$out/catalog/$name")
      }
      println(s"[BuildLake] sf=$sf seed=$seed -> $out")
      println(s"[BuildLake] artifacts=${cat.artifacts.count()} users=${cat.users.count()}")
    } finally spark.stop()
  }
}
