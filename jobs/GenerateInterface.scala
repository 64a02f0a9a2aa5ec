package repro.jobs

import repro.providers.Registry
import repro.spec.UseCaseSpec
import repro.study.SimulatedStudy
import repro.ui.Interface

/** spark-submit entrypoint: print the discovery interface a spec generates.
  *
  * {{{
  * spark-submit --class repro.jobs.GenerateInterface repro.jar [specFile] [sf]
  * }}}
  *
  * Shows the overview tabs (with view type and result size), the compiled
  * search grammar, and the exploration fan-out for the AIRLINES artifact —
  * a textual rendering of Figure 7.
  */
object GenerateInterface {
  def main(args: Array[String]): Unit = {
    val spec = args.headOption.fold(UseCaseSpec.default)(JobSession.specOrExit)
    val sf = JobSession.argOrExit(args, 1, 0.01, "usage: GenerateInterface [specFile] [sf]")(_.toDouble)

    val spark = JobSession("humboldt-interface")
    try {
      val ctx = SimulatedStudy.context(spark, sf, seed = 42)
      val model = Interface.generate(spec, Registry.standard, ctx)

      println("== Overview tabs ==")
      model.tabs.foreach { t =>
        println(f"  ${t.provider.name}%-18s ${t.provider.representation.name}%-10s " +
          f"${t.view.artifactIds.count()}%6d artifacts")
      }
      println("== Search grammar ==")
      model.suggest.admissibleKeys.foreach(k =>
        println(f"  ${k.completion}%-14s (${k.provider}) — ${k.detail}"))
      println("== Exploration from AIRLINES (artifact 1) ==")
      Interface.exploration(spec, Registry.standard, ctx, 1L).foreach { t =>
        println(f"  ${t.provider.name}%-18s inputs=${t.inputs}")
      }
    } finally spark.stop()
  }
}
