package repro.extract

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.catalog.CatalogSynth

class EmbeddingSpec extends SparkSpec {

  private lazy val cat = CatalogSynth(spark, sf = 0.005, seed = 11).cached()
  private lazy val coords = Embedding.coordinates(cat).cache()

  test("every artifact gets coordinates") {
    assert(coords.count() == cat.artifacts.count())
    assert(coords.where(col("x").isNull || col("y").isNull).count() == 0)
  }

  test("coordinates are finite") {
    val bad = coords.where(isnan(col("x")) || isnan(col("y"))).count()
    assert(bad == 0)
  }

  test("embedding is deterministic") {
    val again = Embedding.coordinates(cat)
    val diff = coords.alias("a").join(again.alias("b"), Seq("artifact_id"))
      .where(abs(col("a.x") - col("b.x")) > 1e-9 || abs(col("a.y") - col("b.y")) > 1e-9)
    assert(diff.count() == 0)
  }

  test("first component captures at least as much variance as second") {
    val row = coords.agg(var_pop("x").as("vx"), var_pop("y").as("vy")).collect()(0)
    assert(row.getDouble(0) >= row.getDouble(1) - 1e-6)
  }

  test("components are roughly uncorrelated") {
    val row = coords.agg(corr("x", "y")).collect()(0)
    val c = if (row.isNullAt(0)) 0.0 else row.getDouble(0)
    assert(math.abs(c) < 0.2, s"|corr|=$c")
  }

  test("embedding spreads artifacts (not all at one point)") {
    val row = coords.agg(var_pop("x")).collect()(0)
    assert(row.getDouble(0) > 0.1)
  }

  test("power iteration finds eigenvectors of a known matrix") {
    // diag(4, 1) has eigenvectors e1, e2.
    val m = Array(Array(4.0, 0.0), Array(0.0, 1.0))
    val Seq(v1, v2) = Embedding.topEigenvectors(m, 2)
    assert(math.abs(math.abs(v1(0)) - 1.0) < 1e-6)
    assert(math.abs(v1(1)) < 1e-6)
    assert(math.abs(math.abs(v2(1)) - 1.0) < 1e-6)
  }

  test("power iteration handles correlated matrix") {
    // [[2,1],[1,2]] has eigenvalues 3 (v=[1,1]/√2) and 1 (v=[1,-1]/√2).
    val m = Array(Array(2.0, 1.0), Array(1.0, 2.0))
    val Seq(v1, v2) = Embedding.topEigenvectors(m, 2)
    assert(math.abs(math.abs(v1(0)) - math.sqrt(0.5)) < 1e-4)
    assert(math.abs(v1(0) - v1(1)) < 1e-4) // same sign, equal components
    assert(math.abs(v2(0) + v2(1)) < 1e-4) // opposite signs
  }

  test("deflation produces orthogonal components") {
    val m = Array(
      Array(5.0, 2.0, 0.0),
      Array(2.0, 3.0, 1.0),
      Array(0.0, 1.0, 2.0))
    val Seq(v1, v2) = Embedding.topEigenvectors(m, 2)
    val dot = v1.zip(v2).map { case (a, b) => a * b }.sum
    assert(math.abs(dot) < 1e-4, s"dot=$dot")
  }

  test("each eigenvector is oriented with its largest-magnitude entry positive") {
    // 4·uuᵀ + wwᵀ with u = (0.6, -0.8), w = (0.8, 0.6): the top eigenvector is
    // ±u, oriented as -u so that its largest-magnitude entry (0.8) is positive.
    val m = Array(Array(2.08, -1.44), Array(-1.44, 2.92))
    val Seq(v1, v2) = Embedding.topEigenvectors(m, 2)
    assert(math.abs(v1(0) + 0.6) < 1e-6 && math.abs(v1(1) - 0.8) < 1e-6, v1.mkString(","))
    assert(math.abs(v2(0) - 0.8) < 1e-6 && math.abs(v2(1) - 0.6) < 1e-6, v2.mkString(","))
  }
}
