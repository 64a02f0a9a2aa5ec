package org.apache.spark.sql

import org.apache.spark.sql.catalyst.analysis.{NamedParameter, UnresolvedRelation}
import org.apache.spark.sql.catalyst.expressions.Literal
import org.apache.spark.sql.catalyst.parser.CatalystSqlParser
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, UnresolvedWith}
import org.apache.spark.sql.types.StringType

/** A Spark SQL query parsed once that reads relations as `{name}`
  * placeholders and values as named parameters (`:user`), in subqueries and
  * `WITH` definitions too (DESIGN.md "Provider queries"). Not SparkSession's
  * `sql` with arguments: Spark 4.1 writes the values into the text and
  * parses it again on every call, which cost 4-6 % of a search or a click
  * end to end (BENCH_sql_providers.json).
  */
final class SqlTemplate(query: String) {
  private val Placeholder = """\{(\w+)\}""".r
  // A placeholder parses as the quoted identifier `{name}`, which no table or CTE is called.
  private val plan = CatalystSqlParser.parsePlan(Placeholder.replaceAllIn(query, "`{$1}`"))

  private def parametersOf(p: LogicalPlan): Seq[String] = p.collectWithSubqueries {
    case w: UnresolvedWith => w.cteRelations.flatMap(r => parametersOf(r._2))
    case q => q.expressions.flatMap(_.collect { case NamedParameter(n) => n })
  }.flatten

  /** The query's named parameters. */
  val parameters: Set[String] = parametersOf(plan).toSet

  /** The query with the analysed plan of `relation(name)` in place of each
    * `{name}` and each parameter bound as a string literal of its value in
    * `args` (NULL without one), so no value is ever parsed as SQL. The one
    * call to `classic.Dataset.ofRows`, private to Spark's `sql` package.
    */
  def bind(spark: SparkSession, relation: String => DataFrame, args: Map[String, String]): DataFrame = {
    def bound(p: LogicalPlan): LogicalPlan = p.transformWithSubqueries {
      case w: UnresolvedWith =>
        w.copy(cteRelations = w.cteRelations.map { case (n, d, depth) => (n, d.copy(child = bound(d.child)), depth) })
      case UnresolvedRelation(Seq(Placeholder(name)), _, _) => relation(name).queryExecution.analyzed
    }.transformAllExpressionsWithSubqueries { case NamedParameter(n) => Literal.create(args.get(n).orNull, StringType) }
    classic.Dataset.ofRows(spark.asInstanceOf[classic.SparkSession], bound(plan))
  }
}
