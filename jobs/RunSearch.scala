package repro.jobs

import repro.providers.Registry
import repro.search.QueryCompiler
import repro.spec.UseCaseSpec
import repro.study.SimulatedStudy

/** spark-submit entrypoint: compile and run a Humboldt query.
  *
  * {{{
  * spark-submit --class repro.jobs.RunSearch repro.jar "<query>" [sf] [specFile]
  * }}}
  *
  * Builds the synthetic catalog at `sf`, generates the query language from
  * the spec (the default use-case spec, or one loaded from `specFile`),
  * runs the query and prints the top 20 ranked hits.
  */
object RunSearch {
  def main(args: Array[String]): Unit = {
    val query = args.headOption.getOrElse(UseCaseSpec.flagshipQuery)
    val sf    = JobSession.argOrExit(args, 1, 0.01, "usage: RunSearch [query] [sf] [specFile]")(_.toDouble)
    val spec  = args.lift(2).fold(UseCaseSpec.default)(JobSession.specOrExit)

    val spark = JobSession("humboldt-search")
    try {
      val ctx = SimulatedStudy.context(spark, sf, seed = 42)
      val compiler = new QueryCompiler(spec, Registry.standard, ctx)
      println(s"[RunSearch] query: $query")
      compiler.search(query) match {
        case Left(err) => println(s"[RunSearch] query error: $err"); sys.exit(2)
        case Right(df) =>
          df.select("artifact_id", "name", "artifact_type", "score")
            .show(20, truncate = false)
      }
    } finally spark.stop()
  }
}
