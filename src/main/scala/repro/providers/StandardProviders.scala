package repro.providers

import repro.spec.Representation._

/** The standard provider implementations wired into the use case (paper §6.1,
  * Figure 2): one [[SqlProvider]] query each. None knows anything about
  * views, search, or ranking weights — those are applied by the layers
  * above, driven by the spec.
  */
object StandardProviders {

  /** Most recently created artifacts (Figure 2 "Recents"). */
  val Recents = SqlProvider("recents", ListRep,
    "SELECT * FROM {base} ORDER BY created_at DESC, artifact_id")

  /** Most viewed artifacts (Figure 2 "Popular"). */
  val Frequent = SqlProvider("frequent", Tiles,
    "SELECT * FROM {base} ORDER BY views DESC, artifact_id")

  /** Artifacts owned/created by a named user (Figure 2 "Owned By"). */
  val OwnedBy = SqlProvider("owned_by", ListRep,
    """SELECT b.* FROM {base} b JOIN {users} u ON b.owner_id = u.user_id
      |WHERE u.user_name = :user""".stripMargin)

  /** Artifacts by badge, optionally of one `badge` or `user` (Figure 2 "Badged"). */
  val Badged = SqlProvider("badged", Categories,
    """SELECT b.*, g.category FROM {base} b JOIN (
      |  SELECT DISTINCT artifact_id, badge AS category FROM {badges}
      |  WHERE (:badge IS NULL OR badge = :badge)
      |    AND (:user IS NULL OR badged_by IN (SELECT user_id FROM {users} WHERE user_name = :user))
      |) g ON b.artifact_id = g.artifact_id""".stripMargin,
    optional = Set("badge", "user"))

  /** Artifacts badged by a named user: the query language's `badged by:`. */
  val BadgedBy = SqlProvider("badged_by", ListRep,
    """SELECT b.* FROM {base} b JOIN (
      |  SELECT DISTINCT g.artifact_id FROM {badges} g JOIN {users} u ON g.badged_by = u.user_id
      |  WHERE u.user_name = :user) m ON b.artifact_id = m.artifact_id""".stripMargin)

  /** Artifacts by type, optionally of one type (`type: table`). */
  val OfType = SqlProvider("of_type", Categories,
    """SELECT *, artifact_type AS category FROM {base}
      |WHERE :artifact_type IS NULL OR artifact_type = :artifact_type""".stripMargin,
    optional = Set("artifact_type"))

  /** Artifacts belonging to a named team (team home pages, Listing 2). */
  val TeamDocs = SqlProvider("team_docs", Tiles,
    """SELECT b.* FROM {base} b JOIN {teams} t ON b.team_id = t.team_id
      |WHERE t.team_name = :team""".stripMargin)

  /** A team's most-used artifacts: "which dashboards are my teammates working on?" (§1). */
  val TeamFrequent = SqlProvider("team_frequent", Tiles,
    """SELECT b.*, u.team_uses FROM {base} b JOIN {team_usage} u ON b.artifact_id = u.artifact_id
      |WHERE u.team_name = :team ORDER BY u.team_uses DESC, b.artifact_id""".stripMargin)

  /** Downstream lineage of a selected artifact as a hierarchy (Figure 6): the
    * selection's rows of the catalog's cached lineage closure, one per path
    * ([[repro.catalog.CatalogTables.lineageClosure]]). A value that is not
    * an id reads no rows; the query compiler rejects it before the fetch. */
  val LineageChildren = SqlProvider("lineage_children", Hierarchy,
    """SELECT b.*, w.parent_id, w.depth FROM {base} b JOIN {lineage_closure} w ON b.artifact_id = w.artifact_id
      |WHERE w.root = try_cast(:artifact AS BIGINT)""".stripMargin)

  /** Joinability edges incident to a table, in any case (Figure 3); nodes are artifact ids. */
  val Joinable = SqlProvider("joinable", Graph,
    """SELECT * FROM {join_edges}
      |WHERE lower(src_table) = lower(:table) OR lower(dst_table) = lower(:table)""".stripMargin)

  /** Embedding scatter of all artifacts (Figure 6 "embedding"). */
  val EmbeddingView = SqlProvider("embedding", Embedding,
    "SELECT b.*, c.x, c.y FROM {base} b JOIN {coordinates} c ON b.artifact_id = c.artifact_id")

  /** Case-insensitive substring match over name and description (§5.3). */
  val TextMatch = SqlProvider("text_match", ListRep,
    """SELECT * FROM {base}
      |WHERE contains(lower(name), lower(:q)) OR contains(lower(description), lower(:q))""".stripMargin)

  /** All standard implementations, in registry order. */
  val all: Seq[SqlProvider] = Seq(
    Recents, Frequent, OwnedBy, Badged, BadgedBy, OfType, TeamDocs,
    TeamFrequent, LineageChildren, Joinable, EmbeddingView, TextMatch)
}
