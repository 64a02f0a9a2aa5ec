package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.study.{Likert, SimulatedStudy}

/** spark-submit entrypoint: run the simulated §7 user study and print the
  * task-outcome and questionnaire tables (paper values alongside).
  *
  * {{{
  * spark-submit --class repro.jobs.SimStudy repro.jar [sf] [seed] [nAgents]
  * }}}
  */
object SimStudy {
  def main(args: Array[String]): Unit = {
    val usage   = "usage: SimStudy [sf] [seed] [nAgents]"
    val sf      = JobSession.argOrExit(args, 0, 0.01, usage)(_.toDouble)
    val seed    = JobSession.argOrExit(args, 1, 42L, usage)(_.toLong)
    val nAgents = JobSession.argOrExit(args, 2, 6, usage)(_.toInt)

    val spark = JobSession("humboldt-study")
    try {
      val run = SimulatedStudy.run(spark, sf, seed, nAgents)
      println("== Task outcomes (simulated vs §7.2) ==")
      SimulatedStudy.taskStats(run.results).foreach { s =>
        println(f"  Task ${s.task}: completed ${s.completed}/${s.total}, " +
          f"unassisted ${s.unassisted}/${s.total}, mean steps ${s.meanSteps}%.1f")
      }
      println("== Questionnaire (simulated vs Figure 8) ==")
      run.likert.perCategory.foreach { c =>
        println(f"  ${c.category}%-22s mean ${c.mean}%.2f (paper ${c.paperMean}%.2f) " +
          f"std ${c.std}%.2f (paper ${c.paperStd}%.2f)")
      }
      println(f"  overall mean ${run.likert.overallMean}%.2f (paper 3.97), " +
        f"std ${run.likert.overallStd}%.2f (paper 0.85)")
      println("== Keyword-only baseline ==")
      SimulatedStudy.taskStats(run.baseline).foreach { s =>
        println(f"  Task ${s.task}: completed ${s.completed}/${s.total}")
      }
    } finally spark.stop()
  }
}
