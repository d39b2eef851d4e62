package core

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"golake/internal/admission"
	"golake/internal/discovery"
	"golake/internal/explore"
	"golake/internal/maintain"
	"golake/internal/obs"
	"golake/internal/organize"
	"golake/internal/query"
	"golake/lakeerr"
)

// HTTPHandler exposes the lake over a versioned REST API, the
// external-application interface Constance and CoreDB provide
// (Sec. 7.2). The acting user comes from bearer credentials when the
// request carries "Authorization: Bearer <token>" (tokens registered
// with AddToken; an unknown token is a typed unauthorized rejection,
// never a fallthrough), and from the X-Lake-User header otherwise; role
// checks apply as in the Go API. Every request runs through a
// middleware chain (a cap on the body, panic recovery, request logging
// via WithLogger, bearer resolution, user resolution), and every
// failure is rendered as the structured envelope
// {"error":{"code","message"}} with the code drawn from the lakeerr
// taxonomy.
//
//	DELETE /v1/datasets?path=PATH        evict a dataset (curator/operations)
//	GET  /v1/datasets?cursor=&limit=     paginated catalog entries
//	POST /v1/datasets                    ingest one object (JSON body)
//	GET  /v1/metadata?id=PATH            one GEMMS metadata object
//	GET  /v1/related?table=NAME&k=5      populate-mode discovery
//	POST /v1/explore                     any discovery mode (JSON body)
//	POST /v1/query                       body: {"sql", "order", "limit",
//	                                     "fanin", "timeout_ms",
//	                                     "memory_rows", "explain"};
//	                                     JSON rows + stats,
//	                                     the typed plan when explaining,
//	                                     or chunked NDJSON streaming
//	                                     with Accept: application/x-ndjson,
//	                                     its rows as batch frames with
//	                                     application/x-golake-batch
//	GET  /v1/lineage?entity=NAME         upstream provenance, paginated
//	GET  /v1/audit?entity=NAME           access log (governance role)
//	GET  /v1/swamp                       metadata-coverage report
//	GET  /v1/maintenance                 maintenance status snapshot
//	POST /v1/maintenance                 run a pass now (409 if running)
//	GET  /v1/healthz                     200 while the process serves
//	GET  /v1/readyz                      200 when the lake takes writes,
//	                                     503 when closed or WAL degraded
//
// List endpoints paginate with limit and an opaque cursor (next_cursor
// in the envelope); an offset parameter is an invalid query. A path
// outside /v1/ — the unversioned routes of the first release included
// — is not_found, in the same envelope.
func (l *Lake) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/datasets", l.handleDatasetsV1)
	mux.HandleFunc("POST /v1/datasets", l.handleIngest)
	mux.HandleFunc("DELETE /v1/datasets", l.handleEvict)
	mux.HandleFunc("GET /v1/metadata", l.handleMetadata)
	mux.HandleFunc("GET /v1/related", l.handleRelated)
	mux.HandleFunc("POST /v1/explore", l.handleExplore)
	mux.HandleFunc("POST /v1/query", l.handleQuery)
	mux.HandleFunc("GET /v1/lineage", l.handleLineageV1)
	mux.HandleFunc("GET /v1/audit", l.handleAuditV1)
	mux.HandleFunc("GET /v1/swamp", l.handleSwamp)
	mux.HandleFunc("GET /v1/maintenance", l.handleMaintenanceStatus)
	mux.HandleFunc("POST /v1/maintenance", l.handleMaintenanceTrigger)
	mux.HandleFunc("GET /v1/metrics", l.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", l.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", l.handleReadyz)
	return limitMW(l.recoverMW(l.obsMW(mux)))
}

// maxBodyBytes caps every request body: 256 MiB.
var maxBodyBytes int64 = 256 << 20

// limitMW caps every request body at maxBodyBytes. A read past the cap
// fails with *http.MaxBytesError, and the server closes the connection
// after the reply instead of reading on.
func limitMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		next.ServeHTTP(w, r)
	})
}

type ctxKey int

// authUserKey carries the bearer-token-resolved user; it outranks the
// spoofable X-Lake-User header in userOf.
const authUserKey ctxKey = 0

// authMW resolves bearer credentials: a request carrying
// "Authorization: Bearer <token>" acts as the token's registered user
// (resolved through the hashed-token registry), an unknown or malformed
// credential is rejected with a typed unauthorized error, and a request
// without an Authorization header falls through to the X-Lake-User
// convention unchanged. Sitting inside obsMW keeps rejected probes in
// the metrics and access log.
func (l *Lake) authMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		auth := r.Header.Get("Authorization")
		if auth == "" {
			next.ServeHTTP(w, r)
			return
		}
		token, ok := strings.CutPrefix(auth, "Bearer ")
		if !ok || strings.TrimSpace(token) == "" {
			writeErr(w, lakeerr.Errorf(lakeerr.CodeUnauthorized, "auth: Authorization must be a bearer token"))
			return
		}
		user, ok := l.userForToken(strings.TrimSpace(token))
		if !ok {
			writeErr(w, lakeerr.Errorf(lakeerr.CodeUnauthorized, "auth: unknown bearer token"))
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), authUserKey, user)))
	})
}

// recoverMW turns handler panics into a structured internal error
// instead of a dropped connection. It wraps the response writer so a
// panic after the body started — e.g. mid-stream — never appends an
// error envelope to a partial payload: an NDJSON stream gets the
// trailer error line, anything else is left truncated (the client sees
// the broken body, not a corrupted one).
func (l *Lake) recoverMW(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				if l.logger != nil {
					l.logger.Error("panic", "method", r.Method, "path", r.URL.Path, "panic", rec)
				}
				err := lakeerr.Errorf(lakeerr.CodeInternal, "internal error")
				if ct := sw.Header().Get("Content-Type"); sw.started && (ct == ndjsonContentType || ct == batchContentType) {
					writeNDJSONError(sw, err)
					return
				}
				writeErr(sw, err)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter records the status code for request logging and whether
// the response body has started, so error paths know when sending an
// envelope is no longer possible.
type statusWriter struct {
	http.ResponseWriter
	status  int
	started bool
}

func (s *statusWriter) WriteHeader(code int) {
	if !s.started {
		s.status = code
		s.started = true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	s.started = true
	return s.ResponseWriter.Write(b)
}

// Unwrap returns the underlying writer, so http.ResponseController
// reaches the connection through the middleware chain.
func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// Flush forwards to the underlying writer so chunked streaming works
// through the middleware chain.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// obsMW is the observability middleware: it stamps every request with
// a request ID (honoring an incoming X-Request-ID, echoing it back on
// the response), attaches a request-scoped logger to the context so
// deeper layers — audit events included — log lines joinable on
// request_id, records the HTTP metric series, and emits one structured
// access-log line per request when a logger is configured.
func (l *Lake) obsMW(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw, wrapped := w.(*statusWriter)
		if !wrapped {
			sw = &statusWriter{ResponseWriter: w, status: http.StatusOK}
		}
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		sw.Header().Set("X-Request-ID", id)
		ctx := obs.WithRequestID(r.Context(), id)
		if l.logger != nil {
			ctx = obs.WithLogger(ctx, l.logger.With("request_id", id))
		}
		r = r.WithContext(ctx)
		route := routeOf(mux, r)
		start := time.Now()
		if m := l.metrics; m != nil {
			m.httpInFlight.Inc()
			defer m.httpInFlight.Dec()
		}
		if route == unmatchedRoute && !strings.HasPrefix(r.URL.Path, "/v1/") {
			// Every route lives under /v1/, so no method reaches this
			// path: it is not_found whoever asks, before authentication.
			writeErr(sw, lakeerr.Errorf(lakeerr.CodeNotFound, "no route %s; the API is served under /v1/", r.URL.Path))
		} else {
			l.authMW(mux).ServeHTTP(sw, r)
		}
		elapsed := time.Since(start)
		if m := l.metrics; m != nil {
			m.httpRequests.With(route, r.Method, statusClass(sw.status)).Inc()
			m.httpDuration.With(route).Observe(elapsed.Seconds())
		}
		if l.logger != nil {
			l.logger.Info("request",
				"method", r.Method, "path", r.URL.Path,
				"route", route, "user", userOf(r),
				"status", sw.status, "duration", elapsed,
				"request_id", id)
		}
	})
}

// unmatchedRoute is the metric label of requests no route pattern
// matches.
const unmatchedRoute = "unmatched"

// routeOf recovers the matched route pattern for metric labels — the
// registered pattern, not the raw path, so label cardinality stays
// bounded no matter what paths clients probe.
func routeOf(mux *http.ServeMux, r *http.Request) string {
	_, pattern := mux.Handler(r)
	if pattern == "" {
		return unmatchedRoute
	}
	// Patterns read "METHOD /path"; the method is its own label.
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// statusClass buckets a status code into its class label ("2xx"...).
func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// handleMetrics serves the metric registry in the Prometheus text
// exposition format (GET /v1/metrics).
func (l *Lake) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := l.Metrics()
	if reg == nil {
		writeErr(w, lakeerr.Errorf(lakeerr.CodeUnavailable, "metrics: disabled on this lake (WithMetrics(false))"))
		return
	}
	l.metrics.observeRuntime()
	l.metrics.setResidentBytes("doc_columns", l.Poly.Docs.FormBytes())
	if l.pers != nil {
		if b, ok := l.pers.backend.(fsyncCounter); ok {
			l.metrics.observeFsyncs(b)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = reg.WritePrometheus(w)
}

func userOf(r *http.Request) string {
	if u, ok := r.Context().Value(authUserKey).(string); ok && u != "" {
		return u
	}
	if u := r.Header.Get("X-Lake-User"); u != "" {
		return u
	}
	return "anonymous"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errEnvelope is the v1 error wire shape.
type errEnvelope struct {
	Error errBody `json:"error"`
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeErr maps a classified error onto its HTTP status and the
// structured envelope. Classification comes from the lakeerr taxonomy
// (errors.As under the hood) — never from message text. Once the
// response body has started, the envelope can no longer be framed —
// writeErr becomes a no-op instead of interleaving an error object
// into a partial payload (streaming handlers emit their own in-band
// trailer).
func writeErr(w http.ResponseWriter, err error) {
	if sw, ok := w.(*statusWriter); ok && sw.started {
		return
	}
	code := lakeerr.CodeOf(err)
	// Load-shedding rejections carry a retry hint; surface it as the
	// standard header so well-behaved clients back off before retrying.
	if ra, ok := admission.RetryAfterOf(err); ok {
		secs := int(ra / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, httpStatus(code), errEnvelope{Error: errBody{
		Code:    string(code),
		Message: err.Error(),
	}})
}

func httpStatus(code lakeerr.Code) int {
	switch code {
	case lakeerr.CodeNotFound:
		return http.StatusNotFound
	case lakeerr.CodeUnauthorized:
		return http.StatusForbidden
	case lakeerr.CodeInvalidQuery:
		return http.StatusBadRequest
	case lakeerr.CodeConflict:
		return http.StatusConflict
	case lakeerr.CodeResourceExhausted:
		return http.StatusTooManyRequests
	case lakeerr.CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case lakeerr.CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// orEmpty keeps empty lists encoding as [] instead of null.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// page is the paginated v1 list envelope. NextCursor, when present, is
// the opaque token of the following page.
type page[T any] struct {
	Items      []T    `json:"items"`
	Total      int    `json:"total"`
	Limit      int    `json:"limit"`
	NextCursor string `json:"next_cursor,omitempty"`
}

const (
	defaultPageLimit = 50
	maxPageLimit     = 1000
)

// pageParams are the decoded pagination inputs of one list request.
// Cursor is the decoded opaque payload ("" for the first page).
type pageParams struct {
	limit  int
	cursor string
}

// parsePage reads the limit and cursor query parameters, applying the
// default and maximum bounds. Malformed or negative values are invalid
// queries, not silent defaults; an explicit limit=0 is honored (an
// empty page carrying only the total). An offset parameter is refused
// rather than ignored: ignoring it would serve an offset-paging client
// the first page forever.
func parsePage(r *http.Request) (pageParams, error) {
	p := pageParams{limit: defaultPageLimit}
	var err error
	if s := r.URL.Query().Get("limit"); s != "" {
		p.limit, err = strconv.Atoi(s)
		if err != nil || p.limit < 0 {
			return pageParams{}, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "bad limit %q", s)
		}
		if p.limit > maxPageLimit {
			p.limit = maxPageLimit
		}
	}
	if r.URL.Query().Has("offset") {
		return pageParams{}, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "offset paging is not supported; follow next_cursor")
	}
	if s := r.URL.Query().Get("cursor"); s != "" {
		p.cursor, err = decodeCursor(s)
		if err != nil {
			return pageParams{}, err
		}
	}
	return p, nil
}

// Cursor payloads are one of two forms behind the base64 opacity:
// "k:<key>" resumes a keyset walk strictly after key (stable under
// concurrent writes for sorted listings: datasets, lineage), "p:<pos>"
// resumes a positional walk (append-only listings: audit logs).
const (
	cursorKeyset     = "k:"
	cursorPositional = "p:"
)

func encodeCursor(payload string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(payload))
}

func decodeCursor(s string) (string, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return "", lakeerr.Errorf(lakeerr.CodeInvalidQuery, "bad cursor %q", s)
	}
	payload := string(raw)
	if !strings.HasPrefix(payload, cursorKeyset) && !strings.HasPrefix(payload, cursorPositional) {
		return "", lakeerr.Errorf(lakeerr.CodeInvalidQuery, "bad cursor %q", s)
	}
	return payload, nil
}

// paginateKeyset pages key-sorted items, resuming strictly after the
// cursor's key — a new item landing before the cursor shifts positions
// but never repeats or skips what earlier pages already covered.
func paginateKeyset[T any](items []T, key func(T) string, p pageParams) (page[T], error) {
	total := len(items)
	start := 0
	if p.cursor != "" {
		after, ok := strings.CutPrefix(p.cursor, cursorKeyset)
		if !ok {
			return page[T]{}, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "cursor does not address this listing")
		}
		start = sort.Search(total, func(i int) bool { return key(items[i]) > after })
	}
	if start > total {
		start = total
	}
	end := start + p.limit
	if end > total {
		end = total
	}
	pg := page[T]{Items: orEmpty(items[start:end]), Total: total, Limit: p.limit}
	if end < total && end > start {
		pg.NextCursor = encodeCursor(cursorKeyset + key(items[end-1]))
	}
	return pg, nil
}

// paginatePositional pages items by position, carrying the resume
// point in the cursor; appropriate for append-only listings where
// positions are stable.
func paginatePositional[T any](items []T, p pageParams) (page[T], error) {
	total := len(items)
	start := 0
	if p.cursor != "" {
		pos, ok := strings.CutPrefix(p.cursor, cursorPositional)
		if !ok {
			return page[T]{}, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "cursor does not address this listing")
		}
		n, err := strconv.Atoi(pos)
		if err != nil || n < 0 {
			return page[T]{}, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "bad cursor position")
		}
		start = n
	}
	if start > total {
		start = total
	}
	end := start + p.limit
	if end > total {
		end = total
	}
	pg := page[T]{Items: orEmpty(items[start:end]), Total: total, Limit: p.limit}
	if end < total && end > start {
		pg.NextCursor = encodeCursor(cursorPositional + strconv.Itoa(end))
	}
	return pg, nil
}

func (l *Lake) listDatasets() []organize.CatalogEntry {
	out := []organize.CatalogEntry{}
	for _, id := range l.Catalog.List() {
		// An entry evicted since List is skipped.
		if e, ok := l.Catalog.Entry(id); ok {
			out = append(out, e)
		}
	}
	return out
}

func (l *Lake) handleDatasetsV1(w http.ResponseWriter, r *http.Request) {
	p, err := parsePage(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Catalog listings are ID-sorted, so dataset pages walk the keyset:
	// concurrent ingests shift positions but not cursors.
	pg, err := paginateKeyset(l.listDatasets(), func(e organize.CatalogEntry) string { return e.ID }, p)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pg)
}

// ingestRequest is the POST /v1/datasets body, as encoding/json
// decodes it when decodeIngest's hand decoder declines the body.
type ingestRequest struct {
	Path    string `json:"path"`
	Source  string `json:"source"`
	Content string `json:"content"`
}

func (l *Lake) handleIngest(w http.ResponseWriter, r *http.Request) {
	user := userOf(r)
	if _, err := l.roleOf(user); err != nil {
		writeErr(w, err)
		return
	}
	var path, source string
	var data []byte
	start := time.Now()
	body, err := readBody(w, r)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		if time.Since(start) >= bodyTotalTimeout {
			writeErr(w, lakeerr.Errorf(lakeerr.CodeDeadlineExceeded, "ingest: body not received within %s", bodyTotalTimeout))
		} else {
			writeErr(w, lakeerr.Errorf(lakeerr.CodeDeadlineExceeded, "ingest: body stalled for more than %s", bodyReadTimeout))
		}
		return
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "ingest: body exceeds the %d-byte cap", tooBig.Limit))
		return
	}
	if err == nil {
		path, source, data, err = decodeIngest(body)
	}
	if err != nil || path == "" {
		writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "ingest: body needs path and content"))
		return
	}
	if source == "" {
		source = "http"
	}
	res, err := l.Ingest(r.Context(), path, data, source, user)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"path":   res.Placement.Path,
		"store":  res.Placement.Target,
		"format": res.Placement.Format,
	})
}

// handleEvict removes a dataset (DELETE /v1/datasets?path=...). Role
// enforcement (curator or operations) lives in Lake.Evict.
func (l *Lake) handleEvict(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	if path == "" {
		writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "evict: path parameter required"))
		return
	}
	if err := l.Evict(r.Context(), userOf(r), path); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"evicted": path})
}

func (l *Lake) handleMetadata(w http.ResponseWriter, r *http.Request) {
	obj, err := l.Metadata(r.Context(), r.URL.Query().Get("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         obj.ID,
		"properties": obj.Properties,
		"attributes": obj.Attributes,
		"semantics":  obj.Semantics,
	})
}

func (l *Lake) handleRelated(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("table")
	k := 5
	if s := r.URL.Query().Get("k"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "bad k %q", s))
			return
		}
		if n > 0 {
			k = n
		}
	}
	res, err := l.RelatedTables(r.Context(), userOf(r), name, k)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, orEmpty(res))
}

// exploreRequest is the POST /v1/explore body. Mode selects the
// survey's discovery mode: "join-column" (needs column), "populate",
// or "task" (optional task: augment, features, clean).
type exploreRequest struct {
	Mode   string `json:"mode"`
	Table  string `json:"table"`
	Column string `json:"column"`
	Task   string `json:"task"`
	K      int    `json:"k"`
}

func (l *Lake) handleExplore(w http.ResponseWriter, r *http.Request) {
	// Authenticate before resolving the table, so unregistered callers
	// cannot use the 404/403 difference as an existence oracle.
	user := userOf(r)
	if _, err := l.roleOf(user); err != nil {
		writeErr(w, err)
		return
	}
	var body exploreRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Table == "" {
		writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "explore: body needs mode and table"))
		return
	}
	if body.K < 0 {
		writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "explore: bad k %d", body.K))
		return
	}
	req := explore.Request{K: body.K, Column: body.Column}
	switch body.Mode {
	case "join-column":
		req.Mode = explore.ModeJoinColumn
		if body.Column == "" {
			writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "explore: join-column mode needs column"))
			return
		}
	case "populate", "":
		req.Mode = explore.ModePopulate
	case "task":
		req.Mode = explore.ModeTask
		switch body.Task {
		case "augment", "":
			req.Task = discovery.TaskAugment
		case "features":
			req.Task = discovery.TaskFeatures
		case "clean":
			req.Task = discovery.TaskClean
		default:
			writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "explore: unknown task %q", body.Task))
			return
		}
	default:
		writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "explore: unknown mode %q", body.Mode))
		return
	}
	res, err := l.exploreStored(r.Context(), user, body.Table, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, orEmpty(res))
}

// ndjsonContentType selects chunked streaming on POST /v1/query via
// the Accept header; batchContentType selects it with the rows in
// batch frames, what a coordinator lake asks its members for.
const (
	ndjsonContentType = "application/x-ndjson"
	batchContentType  = "application/x-golake-batch"
)

// maxQueryFanIn caps the per-request fan-in width, so one query cannot
// ask the server for unbounded goroutines.
const maxQueryFanIn = 64

// queryRequest is the POST /v1/query body: one statement plus the
// typed execution options of query.Request. fanin absent means the
// default (one puller per CPU); fanin 1 forces the sequential union.
// The decoder ignores fields it does not know. order entries sort the
// result ({"column": ..., "desc": ...}); explain returns the typed plan
// instead of executing. timeout_ms bounds the query's wall-clock time
// and memory_rows its buffered-row footprint — both are clamped by the
// lake's admission configuration (absent = the admission defaults;
// ignored without WithAdmission).
type queryRequest struct {
	SQL   string `json:"sql"`
	Order []struct {
		Column string `json:"column"`
		Desc   bool   `json:"desc"`
	} `json:"order"`
	Limit      int  `json:"limit"`
	Explain    bool `json:"explain"`
	Analyze    bool `json:"analyze"`
	FanIn      *int `json:"fanin"`
	TimeoutMS  *int `json:"timeout_ms"`
	MemoryRows *int `json:"memory_rows"`
}

// request validates the body against the server-side caps and builds
// the typed query.Request.
func (b queryRequest) request() (query.Request, error) {
	req := query.Request{SQL: b.SQL, Limit: b.Limit, Explain: b.Explain, Analyze: b.Analyze}
	if b.Limit < 0 {
		return req, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "query: limit must be >= 0")
	}
	for _, k := range b.Order {
		if k.Column == "" {
			return req, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "query: order entries need a column")
		}
		req.Order = append(req.Order, query.OrderKey{Column: k.Column, Desc: k.Desc})
	}
	if b.FanIn != nil {
		if *b.FanIn < 0 || *b.FanIn > maxQueryFanIn {
			return req, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "query: fanin must be 0..%d", maxQueryFanIn)
		}
		req.FanIn = *b.FanIn
	}
	if b.TimeoutMS != nil {
		if *b.TimeoutMS < 0 {
			return req, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "query: timeout_ms must be >= 0")
		}
		req.Timeout = time.Duration(*b.TimeoutMS) * time.Millisecond
	}
	if b.MemoryRows != nil {
		if *b.MemoryRows < 0 {
			return req, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "query: memory_rows must be >= 0")
		}
		req.MemoryRows = *b.MemoryRows
	}
	return req, nil
}

func (l *Lake) handleQuery(w http.ResponseWriter, r *http.Request) {
	var body queryRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.SQL == "" {
		writeErr(w, lakeerr.Errorf(lakeerr.CodeInvalidQuery, "query: bad request body"))
		return
	}
	req, err := body.request()
	if err != nil {
		writeErr(w, err)
		return
	}
	// Open the stream before committing to either wire shape, so
	// resolution failures (bad SQL, unknown sources, auth) still get a
	// proper status code and error envelope. The branches consume the
	// same stream; they differ only in framing.
	st, err := l.Query(r.Context(), userOf(r), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	if st.ExplainOnly() {
		_ = st.Close()
		writeJSON(w, http.StatusOK, map[string]any{"plan": st.Plan()})
		return
	}
	accept := r.Header.Get("Accept")
	if framed := strings.Contains(accept, batchContentType); framed || strings.Contains(accept, ndjsonContentType) {
		streamNDJSON(w, r.Context(), st, st.Stats, framed)
		return
	}
	writeQueryJSON(w, r.Context(), st)
}

// writeQueryJSON writes a query stream as the plain JSON answer: the
// bytes encoding/json writes for {"columns", "rows", "stats"}, the rows
// appended by Batch.AppendRowJSON, the encoder of the streamed shapes.
// The body is built whole before any of it is written, so a failure part
// way still answers the error envelope with its status.
func writeQueryJSON(w http.ResponseWriter, ctx context.Context, st *query.RowStream) {
	defer st.Close()
	// Column names and the stats, strings and integers, always marshal.
	cols, _ := json.Marshal(orEmpty(st.Columns()))
	buf := append(append([]byte(`{"columns":`), cols...), `,"rows":[`...)
	var serialize time.Duration
	for {
		b, err := st.NextBatch(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			writeErr(w, err)
			return
		}
		start := time.Now()
		for i := 0; i < b.Len(); i++ {
			// A row line ends in a newline; in the array, in a comma.
			buf = b.AppendRowJSON(buf, i)
			buf[len(buf)-1] = ','
		}
		serialize += time.Since(start)
	}
	buf = bytes.TrimSuffix(buf, []byte(","))
	// Stats are final once the stream is closed.
	_ = st.Close()
	st.AddSpan("serialize", serialize)
	stats, _ := json.Marshal(st.Stats())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(append(append(buf, `],"stats":`...), stats...), "}\n"...))
}

// batchStream is what streamNDJSON drains: a query stream's header and
// its batches (a RowStream, or a test's fake).
type batchStream interface {
	Columns() []string
	NextBatch(ctx context.Context) (*query.Batch, error)
	Close() error
}

// streamNDJSON writes a query stream as chunked NDJSON: a header
// object {"columns":[...]}, then one JSON array per row. A mid-stream
// failure terminates the stream with a final {"error":{...}} line
// instead of a silent truncation; a cleanly-ended stream terminates
// with a {"stats":{...}} trailer carrying the per-source execution
// counters when the caller supplies them — clients distinguish rows
// (arrays) from the header and trailers (objects) by the first byte of
// each line. With framed set, the rows travel as batch frames
// (query.FrameEncoder) between the same header and trailer lines, each
// frame filled to a full batch across the stream's batches.
//
// Row lines are appended into one reused buffer (Batch.AppendRowJSON,
// byte-identical to json.Encoder, which copies stored columns' cells
// from the store's encoding of them) and reach the client one write
// and one flush per batch; frames are written as they fill, and the
// last one, full or not, before the trailer. The header is flushed on
// its own and so is the first batch (the first frame), so a client
// holds the columns and the first rows while the scan is still
// running. Encoding and writing are timed once per write into the
// stream's "serialize" trace span (when the stream carries one),
// recorded on every exit and, on a clean end, before the stats trailer
// so the trailer accounts for it.
func streamNDJSON(w http.ResponseWriter, ctx context.Context, st batchStream, stats func() query.ExecStats, framed bool) {
	defer st.Close()
	var serialize time.Duration
	spans, _ := st.(interface {
		AddSpan(string, time.Duration)
	})
	recordSpan := func() {
		if spans != nil {
			spans.AddSpan("serialize", serialize)
			spans = nil
		}
	}
	defer recordSpan()
	contentType := ndjsonContentType
	var frames *query.FrameEncoder
	if framed {
		contentType, frames = batchContentType, query.NewFrameEncoder(len(st.Columns()))
	}
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	start := time.Now()
	err := json.NewEncoder(w).Encode(map[string]any{"columns": orEmpty(st.Columns())})
	if flusher != nil {
		flusher.Flush()
	}
	serialize += time.Since(start)
	if err != nil {
		return
	}
	var buf []byte
	for {
		b, err := st.NextBatch(ctx)
		start := time.Now()
		switch {
		case err == nil && frames != nil:
			buf = frames.AppendBatch(buf, b)
		case err == nil:
			for i := 0; i < b.Len(); i++ {
				buf = b.AppendRowJSON(buf, i)
			}
		case frames != nil:
			// The rows before the end, or before the failure.
			buf = frames.AppendPending(buf)
		}
		// What a batch adds is one flushed write. A failed write means
		// the client is gone and nobody is left to read a trailer.
		if len(buf) > 0 {
			_, werr := w.Write(buf)
			if flusher != nil {
				flusher.Flush()
			}
			buf = buf[:0]
			serialize += time.Since(start)
			if werr != nil {
				return
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			writeNDJSONError(w, err)
			return
		}
	}
	recordSpan()
	if stats != nil {
		_ = json.NewEncoder(w).Encode(map[string]any{"stats": stats()})
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// writeNDJSONError emits the in-band trailer error line of a broken
// stream (the NDJSON analogue of the error envelope).
func writeNDJSONError(w http.ResponseWriter, err error) {
	_ = json.NewEncoder(w).Encode(errEnvelope{Error: errBody{
		Code:    string(lakeerr.CodeOf(err)),
		Message: err.Error(),
	}})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func (l *Lake) handleLineageV1(w http.ResponseWriter, r *http.Request) {
	p, err := parsePage(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	up, err := l.Lineage(r.Context(), r.URL.Query().Get("entity"))
	if err != nil {
		writeErr(w, err)
		return
	}
	// Upstream listings come back sorted, so pages walk the keyset: a
	// derivation recorded mid-walk shifts positions but not cursors.
	pg, err := paginateKeyset(up, func(e string) string { return e }, p)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pg)
}

func (l *Lake) handleAuditV1(w http.ResponseWriter, r *http.Request) {
	p, err := parsePage(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	events, err := l.Audit(r.Context(), userOf(r), r.URL.Query().Get("entity"))
	if err != nil {
		writeErr(w, err)
		return
	}
	pg, err := paginatePositional(events, p)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, pg)
}

func (l *Lake) handleSwamp(w http.ResponseWriter, r *http.Request) {
	rep, err := l.SwampAudit(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// healthStatus is the GET /v1/healthz and GET /v1/readyz body.
type healthStatus struct {
	Status string `json:"status"`
}

// handleHealthz answers 200 for as long as the process serves requests.
func (l *Lake) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthStatus{Status: "ok"})
}

// handleReadyz answers 200 when the lake takes writes, and 503 with the
// error envelope when it does not (see Lake.ready).
func (l *Lake) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := l.ready(); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, healthStatus{Status: "ready"})
}

func (l *Lake) handleMaintenanceStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, l.MaintenanceStatus())
}

// handleMaintenanceTrigger runs one synchronous incremental pass on
// behalf of a registered user. A pass already in flight is a conflict
// (409) rather than a queue: the running pass — or the scheduler's
// next tick — already covers the data.
func (l *Lake) handleMaintenanceTrigger(w http.ResponseWriter, r *http.Request) {
	if _, err := l.roleOf(userOf(r)); err != nil {
		writeErr(w, err)
		return
	}
	rep, err := l.TriggerMaintain(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	// Same wire projection as the status endpoint's last_pass, plus
	// whether ingests raced the pass.
	writeJSON(w, http.StatusOK, struct {
		maintain.PassStats
		Stale bool `json:"stale"`
	}{rep.stats(), rep.Stale})
}
