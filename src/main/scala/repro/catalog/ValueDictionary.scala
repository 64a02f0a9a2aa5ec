package repro.catalog

import java.util.Locale
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The catalog's bindable values on the driver: for each input type the
  * values it admits, and for each artifact its own values. Autocomplete
  * ("suggestions for admissible prefixes and values as the user types",
  * paper §6.4), value binding and an exploration click's context ("the
  * metadata of this element", §5.2) are lookups here and start no Spark
  * job. Built once per catalog by [[CatalogTables.valueDictionary]]
  * (DESIGN.md "Value dictionary").
  *
  * An `artifact` input is an id, bound from a selection, so it has no
  * values here: like free text, it completes to nothing and binds as typed.
  * Each value an artifact row holds is the string of its type's list.
  *
  * @param lists   each input type's distinct non-null values; none for any
  *                other type
  * @param ids     artifact ids, ascending
  * @param columns for each input type an artifact binds besides its id, the
  *                value of each artifact in `ids` order (null for none)
  */
final class ValueDictionary private (
    lists: Map[String, ValueDictionary.Values],
    ids: Array[Long],
    columns: Seq[(String, Array[String])],
) {
  import ValueDictionary.lower

  /** The `limit` smallest values of `inputType` in Spark's string order
    * whose lower case starts with the trimmed, lower-cased `prefix`. Empty
    * for a type the dictionary does not hold.
    */
  def complete(inputType: String, prefix: String, limit: Int): Seq[String] =
    lists(inputType).complete(lower(prefix.trim), limit)

  /** The value a typed value binds as: itself if `inputType` holds it,
    * else the one value equal to it ignoring case, else itself.
    */
  def canonical(inputType: String, typed: String): String =
    lists(inputType).canonical(typed)

  /** The values of one artifact keyed by input type, as exploration binds
    * them: `artifact` (the id), `artifact_type`, and where the artifact
    * has them `user` (owner), `team`, `badge` (the smallest) and, for a
    * table, `table` (its name). Empty for an unknown id.
    */
  def context(artifactId: Long): Map[String, String] = {
    val i = java.util.Arrays.binarySearch(ids, artifactId)
    if (i < 0) Map.empty
    else Map("artifact" -> artifactId.toString) ++
      columns.flatMap { case (kind, values) => Option(values(i)).map(kind -> _) }
  }
}

object ValueDictionary {
  private def lower(s: String): String = s.toLowerCase(Locale.ROOT)

  /** The input types an artifact row binds besides its id, in the column
    * order of [[artifactRows]] after `artifact_id`.
    */
  private val RowKinds = Seq("artifact_type", "user", "team", "badge", "table")

  /** One input type's values in Spark's string order (`sorted`), and their
    * positions ordered by the values' lower case (`byLower`). Values with a
    * given lower-case prefix are one run of `byLower`, found by two binary
    * searches.
    */
  private final class Values(val sorted: Array[String]) {
    private val byLower: Array[Int] = {
      val keys = sorted.map(lower)
      sorted.indices.sortBy(keys(_)).toArray
    }
    private def key(i: Int): String = lower(sorted(byLower(i)))

    /** The first index from `from` at which `holds` is false; `holds` is
      * true on a prefix of the keys from `from` on.
      */
    private def end(from: Int, holds: String => Boolean): Int = {
      var (lo, hi) = (from, byLower.length)
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (holds(key(mid))) lo = mid + 1 else hi = mid
      }
      lo
    }

    /** Positions in `sorted` of the values whose lower case passes `holds`,
      * which holds on one run of keys from the first key `>= pre` on.
      */
    private def run(pre: String, holds: String => Boolean): Array[Int] = {
      val lo = end(0, _ < pre)
      byLower.slice(lo, end(lo, holds))
    }

    def complete(pre: String, limit: Int): Seq[String] =
      if (pre.isEmpty) sorted.take(limit).toSeq
      else {
        val hits = run(pre, _.startsWith(pre))
        java.util.Arrays.sort(hits)
        hits.take(limit).map(sorted).toSeq
      }

    def canonical(typed: String): String = {
      val l = lower(typed)
      run(l, _ == l).map(sorted) match {
        case equal if equal.contains(typed) => typed
        case Array(only) => only
        case _ => typed
      }
    }
  }

  /** Built from two Spark queries: each input type's distinct values
    * ordered by Spark, and the artifact rows with their owner's and team's
    * names, their smallest badge and a table's name.
    */
  def apply(cat: CatalogTables): ValueDictionary = {
    val lists = valueRows(cat).collect().groupBy(_.getString(0))
      .map { case (kind, rows) => kind -> new Values(rows.map(_.getString(1))) }
      .withDefaultValue(new Values(Array.empty))
    val rows = artifactRows(cat).collect()
    val columns = RowKinds.zipWithIndex.map { case (kind, j) =>
      // The list's string for each row's value, so each value is held once.
      val same = lists(kind).sorted.map(v => v -> v).toMap
      kind -> rows.map(r => same.getOrElse(r.getString(j + 1), null))
    }
    new ValueDictionary(lists, rows.map(_.getLong(0)), columns)
  }

  /** `(kind, v)`: each input type's distinct non-null values, ordered by
    * type and then by Spark's string order.
    */
  private def valueRows(cat: CatalogTables): DataFrame =
    Seq(
      "user" -> cat.users.select("user_name"),
      "team" -> cat.teams.select("team_name"),
      "badge" -> cat.badges.select("badge"),
      "artifact_type" -> cat.artifacts.select("artifact_type"),
      "table" -> cat.artifacts.where(col("artifact_type") === "table").select("name"),
    ).map { case (kind, df) => df.select(lit(kind).as("kind"), col(df.columns.head).cast("string").as("v")) }
      .reduce(_ unionByName _)
      .where(col("v").isNotNull)
      .distinct()
      .orderBy("kind", "v")

  /** `artifact_id` and the [[RowKinds]] columns by id. Of several names for
    * one user or team id, or several badges, the smallest binds, so the
    * choice is stable; `table` is the name of a table and null otherwise.
    */
  private def artifactRows(cat: CatalogTables): DataFrame = {
    def smallest(df: DataFrame, id: String, value: String, as: String): DataFrame =
      df.groupBy(col(id).as(s"${as}_key")).agg(min(value).as(as))
    cat.artifacts.where(col("artifact_id").isNotNull)
      .join(smallest(cat.users, "user_id", "user_name", "user"), col("owner_id") === col("user_key"), "left")
      .join(smallest(cat.teams, "team_id", "team_name", "team"), col("team_id") === col("team_key"), "left")
      .join(smallest(cat.badges, "artifact_id", "badge", "badge"), col("artifact_id") === col("badge_key"), "left")
      .withColumn("table", when(col("artifact_type") === "table", col("name")))
      .select(("artifact_id" +: RowKinds).map(col): _*)
      .orderBy("artifact_id")
  }
}
