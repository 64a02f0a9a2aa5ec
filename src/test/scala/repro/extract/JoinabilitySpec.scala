package repro.extract

import repro.{Oracle, SparkSpec}
import repro.catalog.LakeSynth

class JoinabilitySpec extends SparkSpec {
  import spark.implicits._

  private lazy val lake = LakeSynth.tables(spark, rows = 200, seed = 7)
  private lazy val sketches = ColumnSketches.sketchAll(lake, k = 64)
  private lazy val edges = Joinability.edges(sketches, threshold = 0.5)

  /** DuckDB's exact containment of every ordered column pair across tables
    * of the lake, as the CTE `containments(ta, ca, tb, cb, score)`.
    */
  private lazy val containmentsSql = {
    val melt = (for ((t, df) <- lake; c <- df.columns.toSeq)
      yield s"SELECT '$t' AS t, '$c' AS c, CAST($c AS VARCHAR) AS v FROM $t")
      .mkString("\n    UNION ALL\n    ")
    s"""WITH m AS (
       |  SELECT DISTINCT t, c, v FROM (
       |    $melt)
       |  WHERE v IS NOT NULL),
       |sizes AS (SELECT t, c, COUNT(*) AS n FROM m GROUP BY t, c),
       |containments AS (
       |  SELECT a.t AS ta, a.c AS ca, b.t AS tb, b.c AS cb,
       |         CAST(COUNT(*) AS DOUBLE) / s.n AS score
       |  FROM m a JOIN m b ON a.v = b.v AND a.t <> b.t
       |  JOIN sizes s ON s.t = a.t AND s.c = a.c
       |  GROUP BY a.t, a.c, b.t, b.c, s.n)
       |""".stripMargin
  }

  test("planted region_id clique is discovered") {
    // Every pair among the five region-carrying tables should be connected.
    val connected = edges.map(e => (e.srcTable, e.dstTable)).toSet
    val tablesWithRegion = Seq("AIRLINES", "SALES_PIPELINE", "SALES_FORECAST",
      "REGIONAL_SALES", "CUSTOMER_BASE")
    for (a <- tablesWithRegion; b <- tablesWithRegion if a != b)
      assert(connected.contains((a, b)), s"missing edge $a -> $b")
  }

  test("discovered column pairs are the planted join keys") {
    val airlinesToRegional = edges
      .find(e => e.srcTable == "AIRLINES" && e.dstTable == "REGIONAL_SALES").get
    assert(airlinesToRegional.srcColumn == "region_id")
    assert(airlinesToRegional.dstColumn == "region_id")
  }

  test("customer link between pipeline and base is found") {
    val e = edges.find(e =>
      e.srcTable == "SALES_PIPELINE" && e.dstTable == "CUSTOMER_BASE").get
    // Both region_id and customer_id qualify; the best pair must score ~1.
    assert(e.score > 0.8)
  }

  test("edges never connect a table to itself") {
    assert(edges.forall(e => e.srcTable != e.dstTable))
  }

  test("edge scores are valid containments") {
    assert(edges.forall(e => e.score >= 0.0 && e.score <= 1.0))
  }

  test("threshold prunes edges") {
    val loose = Joinability.edges(sketches, threshold = 0.1)
    val strict = Joinability.edges(sketches, threshold = 0.9)
    assert(strict.size <= edges.size)
    assert(edges.size <= loose.size)
  }

  test("sketch edges agree with exact edges on the lake") {
    val exact = Joinability.exactEdges(lake, threshold = 0.5)
    val exactPairs = exact.map(e => (e.srcTable, e.dstTable)).toSet
    val estPairs = edges.map(e => (e.srcTable, e.dstTable)).toSet
    // At k=64 on planted keys with containment ~1.0 the tails are far from
    // the 0.5 threshold, so the edge sets must match exactly.
    assert(estPairs == exactPairs,
      s"missing=${exactPairs -- estPairs} spurious=${estPairs -- exactPairs}")
  }

  test("edgesDf has the graph-provider contract columns") {
    val df = Joinability.edgesDf(spark, edges)
    assert(df.columns.toSet ==
      Set("src_table", "src_column", "dst_table", "dst_column", "score"))
    assert(df.count() == edges.size)
  }

  test("oracle: exact containment of every column pair matches DuckDB") {
    val got = Joinability.exactContainmentsAll(lake)
      .map(e => (e.srcTable, e.srcColumn, e.dstTable, e.dstColumn, e.score))
      .toDF("ta", "ca", "tb", "cb", "score")
    Oracle.assertEquivalent(got, s"$containmentsSql SELECT * FROM containments", lake: _*)
  }

  test("oracle: exact edges match DuckDB, column pair included") {
    val got = Joinability.exactEdges(lake, threshold = 0.5)
      .map(e => (e.srcTable, e.srcColumn, e.dstTable, e.dstColumn, e.score))
      .toDF("ta", "ca", "tb", "cb", "score")
    Oracle.assertEquivalent(got,
      s"""$containmentsSql
         |SELECT ta, ca, tb, cb, score FROM (
         |  SELECT *, ROW_NUMBER() OVER (PARTITION BY ta, tb ORDER BY score DESC, ca, cb) AS rk
         |  FROM containments)
         |WHERE rk = 1 AND score >= 0.5""".stripMargin, lake: _*)
  }

  test("sketch and exact edges break a containment tie the same way") {
    // Both key columns of `facts` hold exactly the values of `dim.id`, so
    // each direction has two column pairs at containment 1.0.
    val facts = (1L to 40L).map(i => (i, i)).toDF("b_key", "a_key")
    val dim = (1L to 40L).toDF("id")
    val tiny = Seq("facts" -> facts, "dim" -> dim)
    def named(es: Seq[JoinEdge]) = es.map(e => (e.srcTable, e.srcColumn, e.dstTable, e.dstColumn))
    val expected = Seq(("dim", "id", "facts", "a_key"), ("facts", "a_key", "dim", "id"))
    assert(named(Joinability.edges(ColumnSketches.sketchAll(tiny, k = 16), 0.5)) == expected)
    assert(named(Joinability.exactEdges(tiny, 0.5)) == expected)
  }

  test("edgesDf of empty edge list is empty but well-formed") {
    val df = Joinability.edgesDf(spark, Seq.empty)
    assert(df.count() == 0)
    assert(df.columns.length == 5)
  }
}
