package repro.spec

import com.fasterxml.jackson.core.JsonProcessingException
import com.fasterxml.jackson.core.util.{DefaultIndenter, DefaultPrettyPrinter, Separators}
import com.fasterxml.jackson.databind.DeserializationFeature
import org.json4s
import org.json4s.jackson.JsonMethods
import scala.collection.immutable.ListMap

/** JSON tree for Humboldt specifications (Section 4 of the paper), read and
  * written as text by json4s-jackson from the Spark classpath.
  *
  * Object key order is preserved (ListMap) so specs round-trip stably and
  * provider ordering — which the paper exposes to end users as a
  * customization axis — survives (de)serialization.
  */
sealed trait Json {

  /** Look up a field on an object; JNull/absent both map to None. */
  def apply(field: String): Option[Json] = this match {
    case Json.JObject(fields) => fields.get(field).filterNot(_ == Json.JNull)
    case _                    => None
  }

  /** String value, if this node is a string. */
  def str: Option[String] = this match {
    case Json.JString(s) => Some(s)
    case _               => None
  }

  /** Numeric value, if this node is a number. */
  def num: Option[Double] = this match {
    case Json.JNumber(n) => Some(n)
    case _               => None
  }

  /** Boolean value, if this node is a boolean. */
  def bool: Option[Boolean] = this match {
    case Json.JBool(b) => Some(b)
    case _             => None
  }

  /** Element list, if this node is an array. */
  def arr: Option[Vector[Json]] = this match {
    case Json.JArray(xs) => Some(xs)
    case _               => None
  }

  /** Field map, if this node is an object. */
  def obj: Option[ListMap[String, Json]] = this match {
    case Json.JObject(fields) => Some(fields)
    case _                    => None
  }

  /** Compact single-line rendering. */
  def render: String = Json.compact.writeValueAsString(Json.toJValue(this))

  /** Indented multi-line rendering for specs written to disk. */
  def pretty: String = Json.indented.writeValueAsString(Json.toJValue(this))
}

object Json {
  final case class JString(value: String)                extends Json
  final case class JNumber(value: Double)                extends Json
  final case class JBool(value: Boolean)                 extends Json
  final case class JArray(values: Vector[Json])          extends Json
  final case class JObject(fields: ListMap[String, Json]) extends Json
  case object JNull                                      extends Json

  def obj(fields: (String, Json)*): JObject = JObject(ListMap(fields: _*))
  def arr(values: Json*): JArray            = JArray(values.toVector)
  def str(s: String): JString               = JString(s)
  def num(n: Double): JNumber               = JNumber(n)
  def bool(b: Boolean): JBool               = JBool(b)

  /** Error raised on malformed input, with a character offset for context. */
  final case class ParseError(message: String, offset: Int)
      extends RuntimeException(s"$message at offset $offset")

  /** Parse a complete JSON document; trailing non-whitespace is an error. */
  def parse(input: String): Either[ParseError, Json] =
    try Right(fromJValue(reader.readValue[json4s.JValue](input)))
    catch {
      case e: JsonProcessingException =>
        Left(ParseError(e.getOriginalMessage, Option(e.getLocation).fold(0)(_.getCharOffset.toInt)))
    }

  // Readers and writers derived from the mapper Spark shares; it is never mutated.
  private val reader = JsonMethods.mapper
    .reader(DeserializationFeature.FAIL_ON_TRAILING_TOKENS).forType(classOf[json4s.JValue])
  private val compact = JsonMethods.mapper.writer()
  /** Two-space indent, one value per line, `"key": value`, and `[]`/`{}`
    * when empty: the layout spec files and T5's spec-line count use. */
  private val indented = {
    val lines = new DefaultIndenter("  ", "\n")
    JsonMethods.mapper.writer(new DefaultPrettyPrinter(Separators.createDefaultInstance()
        .withObjectFieldValueSpacing(Separators.Spacing.AFTER)
        .withObjectEmptySeparator("").withArrayEmptySeparator(""))
      .withObjectIndenter(lines).withArrayIndenter(lines))
  }

  private def fromJValue(v: json4s.JValue): Json = v match {
    case json4s.JString(s)  => JString(s)
    case json4s.JBool(b)    => JBool(b)
    case json4s.JInt(n)     => JNumber(n.toDouble)
    case json4s.JLong(n)    => JNumber(n.toDouble)
    case json4s.JDouble(n)  => JNumber(n)
    case json4s.JDecimal(n) => JNumber(n.toDouble)
    case json4s.JArray(xs)  => JArray(xs.map(fromJValue).toVector)
    // A repeated key keeps its first position and its last value.
    case json4s.JObject(fs) =>
      JObject(fs.foldLeft(ListMap.empty[String, Json]) { case (m, (k, x)) => m.updated(k, fromJValue(x)) })
    case _ => JNull // JNull; the reader yields no JNothing or JSet
  }

  private def toJValue(j: Json): json4s.JValue = j match {
    case JNull       => json4s.JNull
    case JBool(b)    => json4s.JBool(b)
    case JNumber(n)  => if (n.isWhole && math.abs(n) < 1e15) json4s.JLong(n.toLong) else json4s.JDouble(n)
    case JString(s)  => json4s.JString(s)
    case JArray(xs)  => json4s.JArray(xs.map(toJValue).toList)
    case JObject(fs) => json4s.JObject(fs.map { case (k, v) => k -> toJValue(v) }.toList)
  }
}
