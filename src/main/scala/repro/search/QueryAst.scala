package repro.search

/** Abstract syntax of Humboldt search queries (paper §5.3, Figure 5).
  *
  * A query composes free-text keywords, metadata field-value pairs (pill
  * syntax: `owned by: 'Alex'`), and provider calls (prefix syntax:
  * `:recent_documents()`), with `&`/`|`, negation, and brackets. Adjacent
  * elements conjoin implicitly, matching the paper's flagship example
  * `type: table owned by: 'Alex' badged: endorsed badged by: 'Mike' & 'sales'`.
  */
sealed trait Query {
  /** Render back to concrete pill syntax (used in tests for round-trips). */
  def render: String = this match {
    case Query.Text(w)            => s"'$w'"
    case Query.FieldPred(k, v)    => s"$k: '$v'"
    case Query.ProviderCall(n, a) => s":$n(${a.mkString(", ")})"
    case Query.And(l, r: Query.And) => s"${l.render} & (${r.render})" // keep right nesting
    case Query.And(l, r)          => s"${l.render} & ${r.render}"
    case Query.Or(l, r)           => s"(${l.render} | ${r.render})"
    case Query.Not(q)             => s"!(${q.render})"
  }

  /** All field keys used anywhere in the query. */
  def fieldKeys: Set[String] = this match {
    case Query.FieldPred(k, _) => Set(k)
    case Query.And(l, r)       => l.fieldKeys ++ r.fieldKeys
    case Query.Or(l, r)        => l.fieldKeys ++ r.fieldKeys
    case Query.Not(q)          => q.fieldKeys
    case _                     => Set.empty
  }
}

object Query {
  /** A query element: one provider call returning a list of data artifacts
    * (§5.3). Connectors combine elements.
    */
  sealed trait Element extends Query

  /** Conventional keyword search term. */
  final case class Text(words: String) extends Element

  /** `key: value` — key is a spec-declared search key. */
  final case class FieldPred(key: String, value: String) extends Element

  /** `:provider_name(arg, ...)` — direct provider invocation. */
  final case class ProviderCall(name: String, args: Seq[String]) extends Element

  final case class And(left: Query, right: Query) extends Query
  final case class Or(left: Query, right: Query)  extends Query
  final case class Not(inner: Query)              extends Query
}
