package perfbench

import org.apache.spark.sql.{DataFrame, Row}
import repro.ui._

/** What one tab shows on screen: its first page of rows (the study's page
  * size) and, for a categories view, its whole rollup.
  */
final case class RenderedTab(provider: String, endpoint: String, inputs: Map[String, String],
                             representation: String, pageIds: Seq[Long], rows: Seq[String],
                             rollup: Seq[String]) {
  /** Canonical form compared between repetitions of one interaction. An
    * embedding view is unordered, so only its page size is stable; a graph
    * view orders edges by weight alone, so tied edges come in any order.
    */
  def canonical: String = representation match {
    case "embedding" => s"$provider:${rows.size}"
    case "graph"     => s"$provider:${rows.sorted.mkString(";")}"
    case _           => s"$provider:${rows.mkString(";")}|${rollup.sorted.mkString(";")}"
  }
}

object Ui {
  val PageSize = 10

  private def page(df: DataFrame, cols: String*): Array[Row] =
    df.selectExpr(cols: _*).limit(PageSize).collect()

  private def str(r: Row): String = r.toSeq.map(String.valueOf).mkString("|")

  /** Render the first page of a tab's view. */
  def render(tab: GeneratedTab): RenderedTab = {
    val p = tab.provider
    def out(rows: Array[Row], ids: Seq[Long], rollup: Seq[String] = Nil) =
      RenderedTab(p.name, p.endpoint, tab.inputs, p.representation.name, ids,
        rows.toSeq.map(str), rollup)
    tab.view match {
      case v: TilesView =>
        val rows = page(v.data, "CAST(artifact_id AS BIGINT)", "name", "score")
        out(rows, rows.map(_.getLong(0)).toSeq)
      case v: ListView =>
        val rows = page(v.data, "CAST(artifact_id AS BIGINT)", "name", "score")
        out(rows, rows.map(_.getLong(0)).toSeq)
      case v: HierarchyView =>
        val rows = page(v.data, "CAST(artifact_id AS BIGINT)", "parent_id", "depth")
        out(rows, rows.map(_.getLong(0)).toSeq)
      case v: GraphView =>
        val rows = page(v.edges, "CAST(src AS BIGINT)", "CAST(dst AS BIGINT)", "weight")
        out(rows, rows.flatMap(r => Seq(r.getLong(0), r.getLong(1))).toSeq)
      case v: CategoriesView =>
        val rollup = v.rollup.selectExpr("category", "n").collect().map(r => s"${r.get(0)}=${r.get(1)}")
        val rows = page(v.members, "CAST(artifact_id AS BIGINT)", "category", "score")
        out(rows, rows.map(_.getLong(0)).toSeq, rollup.toSeq)
      case v: EmbeddingViewModel =>
        val rows = page(v.points, "CAST(artifact_id AS BIGINT)", "x", "y")
        out(rows, rows.map(_.getLong(0)).toSeq)
    }
  }

  /** DuckDB checks for one rendered tab: its page lies within the tab's
    * set at the right size, and a categories rollup matches exactly.
    */
  def checks(key: String, t: RenderedTab): Seq[Check] = {
    val setPred = Gate.endpointPred(t.endpoint, t.inputs)
    // A graph page lists edges, not nodes, so only its nodes are checked.
    val size = if (t.representation == "graph") None else Some(PageSize)
    val pageRows = t.pageIds.distinct.map(_.toString) ++ size.map(_ => s"size=${t.rows.size}")
    Check(s"$key/page", pageRows, Gate.pageSql(setPred, t.pageIds, size)) +:
      (if (t.representation == "categories")
         Seq(Check(s"$key/rollup", t.rollup, Gate.rollupSql(t.endpoint, t.inputs)))
       else Nil)
  }
}
