package repro

import java.io.File
import java.nio.file.Files
import java.util.Locale
import scala.jdk.CollectionConverters._
import scala.util.Using
import repro.providers.StandardProviders.{Joinable, TextMatch}
import repro.spec.Representation

/** Case folding that must not depend on the JVM's default locale: Spark's
  * `lower(name)` folds ASCII the same everywhere, while under Turkish
  * `"AIRLINES".toLowerCase` is `aırlınes` (dotless ı).
  */
class LocaleSpec extends SparkSpec {

  private lazy val ctx = TestFixtures.ctx

  test("under a Turkish default locale, text_match and joinable find AIRLINES and LIST is a representation") {
    val c = ctx
    val default = Locale.getDefault
    Locale.setDefault(new Locale("tr"))
    try {
      val names = TextMatch.fetch(c, Map("q" -> "AIRLINES")).collect().map(_.getAs[String]("name"))
      assert(names.contains("AIRLINES"), names.toSeq)
      assert(Joinable.fetch(c, Map("table" -> "AIRLINES")).count() > 0)
      assert(Representation.fromName("LIST") == Right(Representation.ListRep))
    } finally Locale.setDefault(default)
  }

  test("main code lower- and upper-cases only with Locale.ROOT") {
    val root = Iterator.iterate(new File(".").getAbsoluteFile)(_.getParentFile)
      .takeWhile(_ != null).find(d => new File(d, "build.sbt").isFile)
      .getOrElse(fail("no build.sbt above the working directory"))
    val unguarded = "to(Lower|Upper)Case(?!\\(Locale\\.ROOT\\))".r
    val hits = for {
      dir <- Seq("src/main", "jobs")
      file <- Using.resource(Files.walk(new File(root, dir).toPath))(_.iterator().asScala.toList)
      if file.toString.endsWith(".scala")
      (line, n) <- Files.readAllLines(file).asScala.zipWithIndex
      if unguarded.findFirstIn(line).nonEmpty
    } yield s"${root.toPath.relativize(file)}:${n + 1}: ${line.trim}"
    assert(hits.isEmpty, hits.mkString("\n"))
  }
}
