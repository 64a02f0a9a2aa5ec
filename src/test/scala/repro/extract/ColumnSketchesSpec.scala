package repro.extract

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkJobs, SparkSpec}
import repro.catalog.LakeSynth

class ColumnSketchesSpec extends SparkSpec {
  import spark.implicits._

  private def df(name: String, values: Seq[Long]) = values.toDF(name)

  test("sketch records exact distinct count") {
    val s = ColumnSketches.sketch(df("v", Seq(1, 2, 3, 2, 1)), "t", "v", k = 16)
    assert(s.distinct == 3)
    assert(s.theta.getEstimate == 3.0)
  }

  test("sketch ignores nulls") {
    val d = Seq(Some(1L), None, Some(2L), None).toDF("v")
    val s = ColumnSketches.sketch(d, "t", "v", k = 16)
    assert(s.distinct == 2)
  }

  test("empty column sketches to empty signature") {
    val d = Seq.empty[Long].toDF("v")
    val s = ColumnSketches.sketch(d, "t", "v", k = 16)
    assert(s.distinct == 0)
    assert(s.theta.isEmpty)
    assert(s.containmentIn(s) == 0.0)
    val full = ColumnSketches.sketch(df("v", 1L to 5L), "u", "v", k = 16)
    assert(full.containmentIn(s) == 0.0)
  }

  test("identical columns have containment 1") {
    val a = ColumnSketches.sketch(df("v", 1L to 100L), "a", "v", k = 128)
    val b = ColumnSketches.sketch(df("v", 1L to 100L), "b", "v", k = 128)
    assert(a.containmentIn(b) == 1.0)
    assert(b.containmentIn(a) == 1.0)
  }

  test("disjoint columns have containment ~0") {
    val a = ColumnSketches.sketch(df("v", 1L to 200L), "a", "v", k = 64)
    val b = ColumnSketches.sketch(df("v", 1001L to 1200L), "b", "v", k = 64)
    assert(a.containmentIn(b) < 0.1)
  }

  test("containment estimate tracks true overlap within sketch error") {
    // |A|=400, |B|=400, |A∩B|=200 -> containment 1/2 each way.
    val a = ColumnSketches.sketch(df("v", 1L to 400L), "a", "v", k = 128)
    val b = ColumnSketches.sketch(df("v", 201L to 600L), "b", "v", k = 128)
    val est = a.containmentIn(b)
    assert(math.abs(est - 0.5) < 0.15, s"estimate $est too far from 1/2")
  }

  test("containment of a subset is ~1") {
    val sub = ColumnSketches.sketch(df("v", 1L to 50L), "a", "v", k = 128)
    val sup = ColumnSketches.sketch(df("v", 1L to 500L), "b", "v", k = 128)
    assert(sub.containmentIn(sup) > 0.7, s"got ${sub.containmentIn(sup)}")
    assert(sup.containmentIn(sub) < 0.35, s"got ${sup.containmentIn(sub)}")
  }

  test("containment is capped at 1") {
    val a = ColumnSketches.sketch(df("v", 1L to 30L), "a", "v", k = 64)
    assert(a.containmentIn(a) <= 1.0)
  }

  test("sketches are deterministic") {
    val a = ColumnSketches.sketch(df("v", 1L to 99L), "a", "v", k = 16)
    val b = ColumnSketches.sketch(df("v", 1L to 99L), "a", "v", k = 16)
    assert(a.theta.getEstimate == b.theta.getEstimate)
    assert(a.containmentIn(b) == b.containmentIn(a))
  }

  test("sketches of different sizes estimate containment") {
    val a = ColumnSketches.sketch(df("v", 1L to 500L), "a", "v", k = 16)
    val b = ColumnSketches.sketch(df("v", 1L to 500L), "b", "v", k = 64)
    assert(a.containmentIn(b) > 0.7, s"got ${a.containmentIn(b)}")
    assert(b.containmentIn(a) > 0.7, s"got ${b.containmentIn(a)}")
  }

  test("sketch size must be a power of two from 16 to 2^26") {
    assert(ColumnSketches.lgK(16) == 4)
    assert(ColumnSketches.lgK(1 << 26) == 26)
    Seq(0, -16, 8, 24, 100, 1 << 27, Int.MinValue).foreach { k =>
      assertThrows[IllegalArgumentException](ColumnSketches.lgK(k))
    }
    assertThrows[IllegalArgumentException](ColumnSketches.sketchAll(Seq("t" -> df("v", 1L to 3L)), k = 8))
  }

  test("sketchAll covers every column of every table") {
    val t1 = Seq((1L, "x")).toDF("id", "label")
    val t2 = Seq((2L, 3.0)).toDF("k", "value")
    val all = ColumnSketches.sketchAll(Seq("t1" -> t1, "t2" -> t2), k = 16)
    assert(all.map(s => (s.table, s.column)).toSet ==
      Set(("t1", "id"), ("t1", "label"), ("t2", "k"), ("t2", "value")))
    assert(all.map(s => (s.table, s.column)) ==
      Seq(("t1", "id"), ("t1", "label"), ("t2", "k"), ("t2", "value")))

    // An all-null column and a zero-row table still get a sketch, in place.
    val sparse = ColumnSketches.sketchAll(Seq(
      "t1" -> t1.withColumn("blank", lit(null).cast("string")),
      "none" -> t2.where(lit(false))), k = 16)
    assert(sparse.map(s => (s.table, s.column, s.distinct)) == Seq(
      ("t1", "id", 1L), ("t1", "label", 1L), ("t1", "blank", 0L),
      ("none", "k", 0L), ("none", "value", 0L)))
    assert(sparse.filter(_.distinct == 0).forall(_.theta.isEmpty))
  }

  test("sketchAll starts as many Spark jobs for 12 columns as for 2") {
    val wide = spark.range(100).select(
      (1 to 12).map(i => (col("id") % (i * 7)).as(s"c$i")): _*)
    val jobs = Seq(2, 12).map { n =>
      val table = wide.select(wide.columns.take(n).map(col).toSeq: _*)
      SparkJobs.count(spark)(ColumnSketches.sketchAll(Seq("t" -> table), k = 16))
    }
    assert(jobs.head == jobs.last, s"jobs for 2 and 12 columns: $jobs")
  }

  test("oracle: distinct count of every lake column matches DuckDB") {
    val lake = LakeSynth.tables(spark, rows = 200, seed = 7)
    val got = ColumnSketches.sketchAll(lake, k = 16)
      .map(s => (s.table, s.column, s.distinct)).toDF("t", "c", "n")
    val sql = (for ((t, df) <- lake; c <- df.columns.toSeq)
      yield s"SELECT '$t' AS t, '$c' AS c, CAST(COUNT(DISTINCT $c) AS BIGINT) AS n FROM $t")
      .mkString("\nUNION ALL\n")
    Oracle.assertEquivalent(got, sql, lake: _*)
  }

  test("values are compared as strings across numeric types") {
    // The sketch casts to string, so 1 (int) and 1 (long) collide — this is
    // intentional for cross-table join detection.
    val ints  = Seq(1, 2, 3).toDF("v")
    val longs = Seq(1L, 2L, 3L).toDF("v")
    val a = ColumnSketches.sketch(ints, "a", "v", k = 32)
    val b = ColumnSketches.sketch(longs, "b", "v", k = 32)
    assert(a.containmentIn(b) == 1.0)
    assert(b.containmentIn(a) == 1.0)
  }

  test("sketches and edges do not depend on how the lake is partitioned") {
    val lake = LakeSynth.tables(spark, rows = 200, seed = 7)
    val Seq(one, four) = Seq(1, 4).map { n =>
      val sketches = ColumnSketches.sketchAll(lake.map { case (t, d) => t -> d.repartition(n) }, k = 16)
      (sketches.map(s => (s.table, s.column, s.distinct, s.theta.getEstimate)),
        Joinability.edges(sketches, threshold = 0.5))
    }
    assert(one._1 == four._1)
    assert(one._2 == four._2)
    assert(one._2.nonEmpty)
  }

  test("exact containment is the true fraction in each direction") {
    val got = Joinability.exactContainmentsAll(Seq(
      "a" -> df("v", 1L to 10L), "b" -> df("v", 6L to 20L)))
      .map(e => (e.srcTable, e.dstTable) -> e.score).toMap
    assert(got == Map(("a", "b") -> 0.5, ("b", "a") -> 5.0 / 15.0))
  }

  test("exact containment of an empty source column yields no row") {
    val got = Joinability.exactContainmentsAll(Seq(
      "a" -> Seq.empty[Long].toDF("v"), "b" -> df("v", 1L to 5L)))
    assert(got.isEmpty)
  }
}
