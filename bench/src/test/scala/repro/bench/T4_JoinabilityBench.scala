package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.SynthData
import repro.extract.{ColumnSketches, Joinability}

/** T4 — relationship-provider quality: MinHash joinability vs exact.
  *
  * The joinability metadata provider (paper Figure 3, §2's Aurum lineage of
  * work) is a substrate we had to build. This bench measures it the way the
  * discovery literature does: per-table-pair precision/recall of the
  * sketch-estimated join graph against exact containment ground truth, on
  * TPC-H-lite at SF=0.01 (lineitem 60k rows), sweeping sketch width k.
  * Expected shape: recall and precision climb toward 1.0 as k grows, with
  * build cost linear in k — the standard sketch-quality trade-off.
  */
class T4_JoinabilityBench extends AnyFunSuite {
  import BenchFixtures._

  private val Threshold = 0.5

  test("T4: joinability precision/recall vs sketch width") {
    val sf = 0.01
    val tables = Seq(
      "lineitem" -> SynthData.lineitem(spark, sf),
      "orders"   -> SynthData.orders(spark, sf),
      "customer" -> SynthData.customer(spark, sf),
      "part"     -> SynthData.part(spark, sf),
    ).map { case (n, df) => n -> df.cache() }
    tables.foreach(_._2.count()) // materialize

    val truth = Joinability.exactEdges(tables, Threshold)
    val truthPairs = truth.map(e => (e.srcTable, e.dstTable)).toSet
    require(truthPairs.nonEmpty, "ground truth produced no edges")

    banner(s"T4 -- Joinability graph vs exact containment " +
      s"(TPC-H-lite SF=$sf, threshold=$Threshold, ${truthPairs.size} true edges)")
    println(f"${"k"}%-6s${"edges"}%-8s${"precision"}%-12s${"recall"}%-10s${"f1"}%-8s${"build ms"}%s")

    val results = Seq(16, 32, 64, 128).map { k =>
      var est: Seq[repro.extract.JoinEdge] = Seq.empty
      val t0 = System.nanoTime()
      val sketches = ColumnSketches.sketchAll(tables, k)
      est = Joinability.edges(sketches, Threshold)
      val buildMs = (System.nanoTime() - t0) / 1e6
      val estPairs = est.map(e => (e.srcTable, e.dstTable)).toSet
      val tp = (estPairs intersect truthPairs).size.toDouble
      val precision = if (estPairs.isEmpty) 1.0 else tp / estPairs.size
      val recall = tp / truthPairs.size
      val f1 = if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
      println(f"$k%-6d${estPairs.size}%-8d$precision%-12.2f$recall%-10.2f$f1%-8.2f$buildMs%.0f")
      (k, precision, recall, f1)
    }

    // FK relationships of the schema must be discovered at the widest sketch.
    val sketches128 = ColumnSketches.sketchAll(tables, 128)
    val est128 = Joinability.edges(sketches128, Threshold)
      .map(e => (e.srcTable, e.dstTable)).toSet
    Seq("lineitem" -> "orders", "lineitem" -> "part", "orders" -> "customer")
      .foreach { fk =>
        assert(truthPairs.contains(fk), s"ground truth must contain FK edge $fk")
        assert(est128.contains(fk), s"k=128 sketch missed FK edge $fk")
      }

    // Shape: quality at k=128 is high and not worse than at k=16.
    val (_, p16, r16, f16) = results.head
    val (_, p128, r128, f128) = results.last
    assert(f128 >= f16 - 0.05, f"f1 degraded with k: $f16%.2f -> $f128%.2f")
    assert(p128 >= 0.8, f"precision at k=128 too low: $p128%.2f")
    assert(r128 >= 0.8, f"recall at k=128 too low: $r128%.2f")

    tables.foreach(_._2.unpersist())
  }

  test("T4c: containment estimate error shrinks with sketch width") {
    // Controlled pairs with true containment 0.1 .. 0.9: |A|=2000 from
    // 1..2000, B = (shift..shift+1999) so |A ∩ B| / |A| is exact by
    // construction. Mean absolute error per k is the classic sketch
    // trade-off curve the table-pair test cannot show (its planted
    // containments all sit at ~1.0, far from the threshold).
    val stableSpark = spark
    import stableSpark.implicits._
    val nA = 2000
    val a = (1 to nA).map(_.toLong).toDF("v")
    val truths = Seq(0.1, 0.3, 0.5, 0.7, 0.9)
    val pairs = truths.map { c =>
      val shift = math.round(nA * (1 - c)).toInt
      c -> (shift + 1 to shift + nA).map(_.toLong).toDF("v")
    }

    banner("T4c -- Containment estimate MAE vs sketch width (5 pairs, true c=0.1..0.9)")
    println(f"${"k"}%-6s${"mae"}%-10s${"worst abs err"}%s")
    val maes = Seq(16, 32, 64, 128, 256).map { k =>
      val sa = ColumnSketches.sketch(a, "a", "v", k)
      val errs = pairs.map { case (c, b) =>
        val sb = ColumnSketches.sketch(b, "b", "v", k)
        math.abs(sa.containmentIn(sb) - c)
      }
      val mae = errs.sum / errs.size
      println(f"$k%-6d$mae%-10.3f${errs.max}%.3f")
      k -> mae
    }
    val m16 = maes.head._2
    val m256 = maes.last._2
    assert(m256 < m16, f"MAE did not shrink with k: k=16 $m16%.3f vs k=256 $m256%.3f")
    assert(m256 < 0.08, f"MAE at k=256 too high: $m256%.3f")
  }

  test("T4b: lake clique quality at provider defaults") {
    val lake = repro.catalog.LakeSynth.tables(spark, rows = 2000, seed = 7)
    val truth = Joinability.exactEdges(lake, Threshold)
      .map(e => (e.srcTable, e.dstTable)).toSet
    val est = Joinability.edges(
      ColumnSketches.sketchAll(lake, ColumnSketches.DefaultK), Threshold)
      .map(e => (e.srcTable, e.dstTable)).toSet
    val tp = (est intersect truth).size.toDouble
    println(f"lake clique: precision ${tp / est.size}%.2f recall ${tp / truth.size}%.2f " +
      s"(${truth.size} true edges)")
    assert(tp / truth.size >= 0.9, "provider-default sketches miss planted lake joins")
  }
}
