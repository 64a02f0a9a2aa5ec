package repro

import java.io.File
import java.nio.file.Files
import scala.jdk.CollectionConverters._
import scala.util.Using
import org.scalatest.funsuite.AnyFunSuite

/** Input values meet SQL in one place: `SqlTemplate.bind` binds them as
  * literals in a query it parsed once and turns the plan into a DataFrame.
  * No SQL text is run as such, and no temp view is registered.
  */
class SqlCallSitesSpec extends AnyFunSuite {

  private val allowed = Set("SqlTemplate.bind")

  test("only the SQL binder runs SQL text, registers temp views or wraps plans") {
    val root = Iterator.iterate(new File(".").getAbsoluteFile)(_.getParentFile)
      .takeWhile(_ != null).find(d => new File(d, "build.sbt").isFile)
      .getOrElse(fail("no build.sbt above the working directory"))
    val call = """\.sql\(|\.create(OrReplace)?(Global)?TempView\(|\.ofRows\(""".r
    val owner = """^(?:final |sealed |abstract )*(?:case )?(?:class|object|trait) (\w+)""".r.unanchored
    val member = """^  (?:override |private |protected |final )*(?:lazy )?(?:def|val) (\w+)""".r.unanchored
    val found = for {
      dir <- Seq("src/main", "jobs")
      file <- Using.resource(Files.walk(new File(root, dir).toPath))(_.iterator().asScala.toList)
      if file.toString.endsWith(".scala")
      lines = Files.readAllLines(file).asScala.toIndexedSeq
      (line, n) <- lines.zipWithIndex
      if call.findFirstIn(line).nonEmpty
    } yield {
      def last(r: scala.util.matching.Regex) =
        lines.take(n + 1).reverseIterator.collectFirst { case r(name) => name }.getOrElse("?")
      s"${last(owner)}.${last(member)}" -> s"${root.toPath.relativize(file)}:${n + 1}: ${line.trim}"
    }
    val stray = found.filterNot(f => allowed(f._1))
    assert(stray.isEmpty, stray.map(f => s"${f._2} (in ${f._1})").mkString("\n"))
    assert(found.map(_._1).toSet == allowed, found)
  }
}
