package repro.search

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.providers.{Contracts, MissingInputException, Provider, ProviderBinding, ProviderContext, Registry}
import repro.ranking.Ranking
import repro.spec.{HumboldtSpec, MetadataProviderSpec, RankingWeight, Representation, Surface}

/** Compiles query ASTs into one Catalyst plan over the metadata catalog.
  *
  * Each query element resolves through the spec to a provider and reduces
  * to a scored list of artifact ids ("Each query element returns a list of
  * data artifacts", §5.3). Every element is left-joined once onto the
  * enriched artifacts, so membership in an element is a non-null id and the
  * logical connectors are column algebra over one relation: `&` is `&&`
  * summing scores, `|` is `||` summing the scores of the sides that hold,
  * and negation is `!` with score 0. *Search* runs against all artifacts;
  * *filter* narrows that relation to a view's scope first (§5.3: "The
  * difference between search and filters is the set of data artifacts it
  * is performed on").
  */
final class QueryCompiler(spec: HumboldtSpec, registry: Registry, ctx: ProviderContext) {
  import QueryCompiler.Bound

  private val parser = QueryParser.fromSpec(spec)
  private val searchable = spec.providersOn(Surface.Search)

  /** Parse, bind and execute; result carries full artifact metadata plus
    * `score`, ordered best-first. `scope` switches filter semantics.
    */
  def search(input: String, scope: Option[DataFrame] = None): Either[String, DataFrame] =
    parser.parse(input).flatMap(plan(_, scope))

  /** Execute a parsed query, as [[search]] does; a query element that does
    * not bind or fetch throws `IllegalArgumentException`.
    */
  def run(q: Query, scope: Option[DataFrame] = None): DataFrame =
    plan(q, scope).fold(e => throw new IllegalArgumentException(e), identity)

  private def elements(q: Query): Seq[Query.Element] = q match {
    case e: Query.Element => Seq(e)
    case Query.And(l, r)  => elements(l) ++ elements(r)
    case Query.Or(l, r)   => elements(l) ++ elements(r)
    case Query.Not(inner) => elements(inner)
  }

  /** Binds and fetches every element before any is joined, so a query
    * that does not bind, or whose provider rejects its inputs, is a `Left`.
    */
  private def plan(q: Query, scope: Option[DataFrame]): Either[String, DataFrame] = {
    val elems = elements(q).distinct
    val fetched = elems.map(e => bind(e).flatMap(fetch))
    fetched.collectFirst { case Left(e) => e }.toLeft {
      val enriched = ctx.enrichedArtifacts
      val universe = scope.fold(enriched)(s =>
        enriched.join(s.select(col("artifact_id").cast("long")), Seq("artifact_id"), "left_semi"))
      val (joined, terms) = fetched.collect { case Right(f) => f }.zipWithIndex
        .foldLeft((universe, Vector.empty[(Column, Column)])) { case ((df, acc), ((b, out), i)) =>
          val (next, term) = joinElement(df, b, out, i)
          (next, acc :+ term)
        }
      val byElement = elems.zip(terms).toMap

      def algebra(q: Query): (Column, Column) = q match {
        case e: Query.Element => byElement(e)
        case Query.And(l, r) =>
          val ((pl, sl), (pr, sr)) = (algebra(l), algebra(r))
          (pl && pr, sl + sr)
        case Query.Or(l, r) =>
          val ((pl, sl), (pr, sr)) = (algebra(l), algebra(r))
          (pl || pr, when(pl, sl).otherwise(0.0) + when(pr, sr).otherwise(0.0))
        case Query.Not(inner) => (!algebra(inner)._1, lit(0.0))
      }

      val (pred, score) = algebra(q)
      joined.where(pred)
        .select(enriched.columns.map(col) :+ score.as(Ranking.ScoreColumn): _*)
        .orderBy(col(Ranking.ScoreColumn).desc, col("artifact_id"))
    }
  }

  /** A bound element with its provider's rows, or a `Left` when the
    * provider rejects its inputs or lacks extracted edges or coordinates. */
  private def fetch(b: Bound): Either[String, (Bound, DataFrame)] =
    try Right(b -> b.impl.fetch(ctx, b.inputs)) catch {
      case e @ (_: MissingInputException | _: IllegalStateException | _: IllegalArgumentException) =>
        Left(s"provider endpoint '${b.impl.endpoint}' failed on ${b.inputs.mkString(", ")}: ${e.getMessage}")
    }

  /** Left-joins element `i` onto `df` as `(q{i}_aid, q{i}_score)`: the
    * provider's rows (a graph's `src` and `dst` ids), scored and
    * deduplicated on the id. Returns the element's membership and score
    * over the joined relation. A weight reads the element's own row where
    * that row carries the field, else the enriched row, else adds 0.
    */
  private def joinElement(df: DataFrame, b: Bound, out: DataFrame, i: Int): (DataFrame, (Column, Column)) = {
    val rows = if (b.impl.representation == Representation.Graph)
      Contracts.artifactIds(Representation.Graph, out) else out
    val (aid, own) = (s"q${i}_aid", s"q${i}_score")
    val ids = rows.select(col("artifact_id").cast("long").as(aid),
        Ranking.scoreExpr(b.weights, rows).as(own))
      .dropDuplicates(aid)
    val lacking = b.weights.filterNot(w => rows.columns.exists(_.equalsIgnoreCase(w.field)))
    val score = if (lacking.isEmpty) col(own)
      else col(own) + Ranking.scoreExpr(lacking, ctx.enrichedArtifacts)
    (df.join(ids, col("artifact_id") === col(aid), "left"), (col(aid).isNotNull, score))
  }

  private def bind(e: Query.Element): Either[String, Bound] = e match {
    case Query.Text(words) =>
      // Prefer a spec-declared text provider (so admins can weight or hide
      // it); fall back to the registered text_match endpoint with global
      // ranking, since conventional search is always available (§6.4).
      val inputs = Map("q" -> words)
      searchable.find(_.endpoint == "text_match") match {
        case Some(p) => bound(p, inputs)
        case None => registry.get("text_match").toRight("no text_match endpoint registered")
          .map(Bound(_, inputs, spec.globalRanking))
      }

    case Query.FieldPred(key, value) =>
      for {
        p <- searchable.find(_.searchKey.exists(_.equalsIgnoreCase(key)))
          .toRight(s"no search-visible provider with search key '$key'")
        in <- p.inputs.headOption
          .toRight(s"provider '${p.name}' takes no input but got value '$value'")
        b <- bound(p, Map(in.name -> canonical(in.inputType, value)))
      } yield b

    case Query.ProviderCall(name, args) =>
      for {
        p <- searchable.find(sp => QueryParser.normalize(sp.name) == name)
          .toRight(s"no search-visible provider named '$name'")
        inputs <- bindPositional(p, args)
        b <- bound(p, inputs)
      } yield b
  }

  /** `p`'s implementation with `inputs`, or why it has none; an `artifact`
    * input binds only an id (DESIGN.md "Provider queries"). */
  private def bound(p: MetadataProviderSpec, inputs: Map[String, String]): Either[String, Bound] =
    p.inputs.find(in => in.inputType == "artifact" && inputs.get(in.name).exists(_.toLongOption.isEmpty))
      .map(in => s"provider endpoint '${p.endpoint}' takes an artifact id as '${in.name}', got '${inputs(in.name)}'")
      .toLeft(()).flatMap(_ => ProviderBinding.lookup(p, registry)).map(Bound(_, inputs, spec.effectiveRanking(p)))

  /** A typed value in the catalog's case: itself if the catalog holds it
    * for the input's type, else the one value equal to it ignoring case,
    * else itself (DESIGN.md "Value dictionary").
    */
  private def canonical(inputType: String, value: String): String =
    ctx.catalog.valueDictionary.canonical(inputType, value)

  private def bindPositional(p: MetadataProviderSpec, args: Seq[String]): Either[String, Map[String, String]] = {
    val inputs = p.inputs.zip(args).map { case (in, a) => in.name -> canonical(in.inputType, a) }.toMap
    val unmet = p.requiredInputs.map(_.name).filterNot(inputs.contains)
    if (args.size > p.inputs.size)
      Left(s"provider '${p.name}' takes at most ${p.inputs.size} arguments, got ${args.size}")
    else if (unmet.nonEmpty)
      Left(s"provider '${p.name}' is missing required inputs: ${unmet.mkString(", ")}")
    else Right(inputs)
  }
}

private object QueryCompiler {
  /** A query element bound to its implementation, inputs and weights. */
  final case class Bound(impl: Provider, inputs: Map[String, String], weights: Seq[RankingWeight])
}
