package query

import (
	"context"
	"strings"
)

// RemoteSpec is one remote sub-query: the serialized statement the
// member lake should execute plus the identity it runs as. The engine
// builds the statement from the plan's pushdown decision (predicates,
// projection, and — when a limit bounds the result — order and limit),
// so a member lake sees an ordinary SELECT and applies its own pushdown
// locally.
type RemoteSpec struct {
	// SQL is the pushed-down statement, e.g.
	// "SELECT id, total FROM orders WHERE total > 10 LIMIT 5".
	SQL string
	// User is the requesting identity, forwarded so the member lake
	// authorizes the sub-query as the original caller — a remote hop is
	// not an auth bypass.
	User string
}

// RemoteOpener opens streaming scans against one remote member lake.
// Implementations (internal/remote) speak the /v1/query streaming
// protocol; the engine only requires the returned stream to know its
// header eagerly (Columns callable before the first batch), because
// the union stage computes the SELECT * result header from the source
// headers.
type RemoteOpener interface {
	// OpenStream executes the sub-query on the member lake; the stream
	// joins the pipeline as a leaf through its batch face. It must
	// honor ctx: cancellation aborts the remote request, and Close
	// releases the connection.
	OpenStream(ctx context.Context, spec RemoteSpec) (BatchScanner, error)
	// Describe returns a human-readable endpoint (base URL) for plans.
	Describe() string
}

// remoteMember splits a resolved remote source name ("member:dataset",
// the canonical form resolveKind produces) back into its parts.
func remoteMember(name string) (member, dataset string) {
	member, dataset, _ = strings.Cut(name, ":")
	return member, dataset
}

// remoteStatement builds the sub-query pushed to a member lake for one
// FROM item. The statement carries the predicates and the query's own
// projection: the member filters with the engine this one runs, so no
// predicate is evaluated again here and no predicate column needs to
// cross the hop. When a limit bounds the result, ORDER BY + LIMIT ride
// along — each member's top-k is a superset of its contribution to the
// global top-k, so the central sort stage stays correct while members
// ship k rows instead of all.
func (e *Engine) remoteStatement(dataset string, q *Query, env execEnv) string {
	rq := Query{Sources: []string{dataset}, Columns: q.Columns, Where: q.Where}
	if env.limit > 0 {
		rq.Order = env.order
		rq.Limit = env.limit
	}
	return rq.String()
}

// hasRemoteSource reports whether any FROM item resolves to a remote
// member lake — those headers are unknowable without opening the
// stream, so explain-time SELECT * header validation is skipped.
func (e *Engine) hasRemoteSource(q *Query) bool {
	for _, src := range q.Sources {
		if kind, _, err := e.resolveKind(src); err == nil && kind == "remote" {
			return true
		}
	}
	return false
}
