package repro.providers

import java.util.Locale
import org.apache.spark.sql.{DataFrame, SparkSession, SqlTemplate}
import org.apache.spark.sql.functions._
import repro.catalog.CatalogTables
import repro.spec.{MetadataProviderSpec, Representation}

/** Everything a provider implementation may read from.
  *
  * The catalog plays the role of the paper's metadata services; `joinEdges`
  * and `coordinates` are outputs of the relationship-extraction substrate
  * (`repro.extract`) when the deployment has computed them. Providers fetch
  * *through* this context only — they never see the UI, which is exactly the
  * decoupling the paper's framework is about.
  *
  * @param joinEdges   joinability edges (src_table, src_column, dst_table,
  *                    dst_column, score), if extracted
  * @param coordinates 2-D artifact embedding (artifact_id, x, y), if extracted
  */
final case class ProviderContext(
    spark: SparkSession,
    catalog: CatalogTables,
    joinEdges: Option[DataFrame] = None,
    coordinates: Option[DataFrame] = None,
) {
  /** The catalog's artifacts with ranking fields; see
    * [[CatalogTables.enrichedArtifacts]].
    */
  def enrichedArtifacts: DataFrame = catalog.enrichedArtifacts

  /** The extracted edges with `src` and `dst` resolved to the artifact ids
    * of their tables (names matched case-insensitively): `(src, dst,
    * weight, src_table, src_column, dst_table, dst_column)`. An edge whose
    * table names no artifact is dropped. Built on the first joinability
    * fetch and cached as one partition, so a fetch is a filter on the table
    * names (DESIGN.md "Derived relations").
    */
  lazy val joinEdgesById: Option[DataFrame] = joinEdges.map { edges =>
    val names = catalog.artifacts.select(col("artifact_id"), upper(col("name")).as("uname"))
    edges
      .join(names.select(col("artifact_id").as("src"), col("uname").as("src_name")),
        upper(col("src_table")) === col("src_name"))
      .join(names.select(col("artifact_id").as("dst"), col("uname").as("dst_name")),
        upper(col("dst_table")) === col("dst_name"))
      .select(col("src"), col("dst"), col("score").as("weight"),
        col("src_table"), col("src_column"), col("dst_table"), col("dst_column"))
      .coalesce(1).cache()
  }

  /** The relation that a provider query's `{name}` placeholder reads:
    * `base` (the enriched artifacts), `users`, `teams`, `badges`, `team_usage`
    * and `lineage_closure` ([[CatalogTables]]), `join_edges` ([[joinEdgesById]])
    * or `coordinates`. One the context lacks (edges or coordinates not
    * extracted) is an `IllegalStateException` naming it.
    */
  def relation(name: String): DataFrame = (name match {
    case "base"            => Some(enrichedArtifacts)
    case "users"           => Some(catalog.users)
    case "teams"           => Some(catalog.teams)
    case "badges"          => Some(catalog.badges)
    case "team_usage"      => Some(catalog.teamUsage)
    case "lineage_closure" => Some(catalog.lineageClosure)
    case "join_edges"      => joinEdgesById
    case "coordinates"     => coordinates
    case _                 => None
  }).getOrElse(throw new IllegalStateException(
    s"a provider query reads {$name}, but this ProviderContext has no ${name.replace('_', ' ')}"))
}

/** Raised when a provider is invoked without a declared required input
  * (paper §4.1: required inputs gate whether a provider "has all the
  * information needed for fetching data").
  */
final case class MissingInputException(endpoint: String, input: String)
    extends RuntimeException(s"provider endpoint '$endpoint' requires input '$input'")

/** A metadata provider implementation.
  *
  * The Humboldt spec references implementations by [[endpoint]]; *how* data
  * is fetched (here: SQL or DataFrame programs over the catalog) is opaque
  * to the spec and the generated UI (paper §4.1). The [[representation]] is
  * the shape contract the returned DataFrame must satisfy — checked by
  * [[Contracts.validate]] in tests and at view-construction time.
  */
trait Provider {
  def endpoint: String

  /** The representation this implementation produces. A spec entry whose
    * declared representation differs is a validation error (Registry).
    */
  def representation: Representation

  /** Fetch metadata given string-typed inputs (the UI binds these from user
    * entry or from a selected artifact's metadata during exploration).
    */
  def fetch(ctx: ProviderContext, inputs: Map[String, String] = Map.empty): DataFrame

  /** The input names [[fetch]] cannot do without (those it reads through
    * [[need]]). A spec entry that declares no input of one of these names is
    * a validation error ([[ProviderBinding.validate]]).
    */
  def needs: Set[String] = Set.empty

  /** Convenience: throw unless a required input is present. */
  protected def need(inputs: Map[String, String], key: String): String =
    inputs.getOrElse(key, throw MissingInputException(endpoint, key))
}

/** A provider that is one Spark SQL query (DESIGN.md "Provider queries").
  * The query reads relations as `{base}` ([[ProviderContext.relation]]) and
  * each input as a named parameter (`:user`); it is parsed once and bound on
  * every fetch by [[SqlTemplate]]. A missing `optional` input binds as NULL;
  * the other parameters are the provider's [[needs]].
  */
final case class SqlProvider(endpoint: String, representation: Representation, query: String,
                             optional: Set[String] = Set.empty) extends Provider {
  private lazy val template = new SqlTemplate(query)

  override lazy val needs: Set[String] = template.parameters -- optional

  def fetch(ctx: ProviderContext, inputs: Map[String, String]): DataFrame = {
    needs.toSeq.sorted.foreach(need(inputs, _))
    template.bind(ctx.spark, ctx.relation, inputs)
  }
}

/** Shape contracts per representation: which columns a provider's output
  * must contain for the corresponding view to be constructible.
  */
object Contracts {
  import Representation._

  /** Required column names for each representation. */
  def requiredColumns(rep: Representation): Set[String] = rep match {
    case Tiles | ListRep => Set("artifact_id", "name", "artifact_type")
    case Hierarchy       => Set("artifact_id", "parent_id", "depth", "name")
    case Graph           => Set("src", "dst", "weight")
    case Categories      => Set("artifact_id", "name", "category")
    case Embedding       => Set("artifact_id", "name", "x", "y")
  }

  /** Throws unless `df` has every column of the contract of `rep`. */
  def validate(rep: Representation, df: DataFrame): Unit = {
    val m = requiredColumns(rep) -- df.columns.map(_.toLowerCase(Locale.ROOT))
    require(m.isEmpty,
      s"provider output violates '${rep.name}' contract: missing columns ${m.toSeq.sorted.mkString(", ")}")
  }

  /** The artifact ids present in a provider result, regardless of shape —
    * this is what makes every provider usable as a *search* query element
    * (paper §5.3: "Each query element returns a list of data artifacts").
    */
  def artifactIds(rep: Representation, df: DataFrame): DataFrame = rep match {
    case Graph =>
      df.select(col("src").cast("long").as("artifact_id"))
        .unionByName(df.select(col("dst").cast("long").as("artifact_id")))
        .distinct()
    case _ =>
      df.select(col("artifact_id").cast("long")).distinct()
  }
}

/** Validation of a spec against a registry of implementations — the seam
  * where "does the spec make sense" meets "is it implemented".
  */
object ProviderBinding {
  def validate(spec: repro.spec.HumboldtSpec, registry: Registry): Seq[String] = {
    val structural = spec.validate
    val binding = spec.providers.flatMap { p =>
      registry.get(p.endpoint) match {
        case None => Seq(s"provider '${p.name}': endpoint '${p.endpoint}' is not registered")
        case Some(impl) if impl.representation != p.representation =>
          Seq(s"provider '${p.name}': spec declares representation " +
            s"'${p.representation.name}' but endpoint '${p.endpoint}' produces " +
            s"'${impl.representation.name}'")
        case Some(impl) =>
          (impl.needs -- p.requiredInputs.map(_.name)).toSeq.sorted.map { n =>
            val how = if (p.inputs.exists(_.name == n)) "declares optional" else "does not declare"
            s"provider '${p.name}': endpoint '${p.endpoint}' needs input '$n', which the spec entry $how"
          }
      }
    }
    structural ++ binding
  }

  /** Resolve a spec entry to its implementation, or say why it has none. */
  def lookup(p: MetadataProviderSpec, registry: Registry): Either[String, Provider] =
    registry.get(p.endpoint).toRight(s"unregistered endpoint '${p.endpoint}'")

  /** Resolve a spec entry to its implementation, or fail loudly. */
  def resolve(p: MetadataProviderSpec, registry: Registry): Provider =
    lookup(p, registry).fold(e => throw new IllegalArgumentException(e), identity)
}
