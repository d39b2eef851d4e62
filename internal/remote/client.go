// Package remote makes another golake a member store of this one: a
// Client speaks the existing POST /v1/query streaming protocol to a
// member lake's base URL and adapts the response into the query
// engine's iterator contracts — batches for the columnar pipeline, rows
// for the rest. It asks for batch frames (column-major, length- and
// CRC-framed, query.FrameEncoder) and reads NDJSON row lines as well,
// which is what a member that predates the frame answers; header and
// trailer are JSON lines either way. The engine pushes predicates,
// projections, and limits down as an ordinary SELECT statement, so to
// the member the federated hop is just another query, and the member's
// filter is the only one its rows pass — and to the engine's fan-in
// machinery a remote lake is just a slow member store, which is exactly
// what the backpressure design was built for.
package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"golake/internal/obs"
	"golake/internal/query"
	"golake/lakeerr"
)

// Defaults for the zero-value Options.
const (
	// DefaultConnectRetries is how many times a failed connect is
	// retried before the open fails (transport errors only — an HTTP
	// error status is an answer, not a connect failure).
	DefaultConnectRetries = 2
	// DefaultRetryBackoff is the first retry's delay; each subsequent
	// retry doubles it, capped at maxRetryBackoff.
	DefaultRetryBackoff = 50 * time.Millisecond
	maxRetryBackoff     = time.Second
	// streamAccept asks a member for batch frames and lets one that
	// predates them answer NDJSON.
	streamAccept = "application/x-golake-batch, application/x-ndjson"
	// idleConnsPerMember is each client's keep-alive pool: wide enough
	// that a coordinator's concurrent streams to one member (fan-in
	// pullers) each find their connection again.
	idleConnsPerMember = 32
)

// Options tunes one member-lake client.
type Options struct {
	// Timeout bounds each remote query from connect through the last
	// byte of the stream. 0 means no client-side timeout (the member's
	// own admission deadlines still apply).
	Timeout time.Duration
	// ConnectRetries is the number of connect retries (< 0 disables,
	// 0 means DefaultConnectRetries).
	ConnectRetries int
	// RetryBackoff is the initial retry delay (0 = DefaultRetryBackoff),
	// doubled per retry and capped.
	RetryBackoff time.Duration
	// Token, when set, is forwarded as "Authorization: Bearer <token>"
	// so the member lake authenticates the federated hop itself; the
	// requesting user still rides along in X-Lake-User for auditing.
	Token string
	// Client overrides the HTTP client (tests inject transports here).
	// Nil gives the client a transport of its own, so its keep-alive
	// pool is neither shared with nor closed by anything else in the
	// process — per-request timeouts come from Timeout, not
	// http.Client.Timeout, so streams may outlive slow first bytes.
	Client *http.Client
}

// Observer receives the client's telemetry; the lake wires its metrics
// registry in here. All methods may be called concurrently.
type Observer interface {
	// RemoteRequest records one finished remote query: outcome is "ok",
	// "aborted" (closed before the trailer), or the lakeerr code of the
	// failure; d spans open through terminal state.
	RemoteRequest(member, outcome string, d time.Duration)
	// RemoteRetry records one connect retry.
	RemoteRetry(member string)
	// RemoteRows records the rows a finished stream delivered.
	RemoteRows(member string, n int64)
}

// Client opens pushed-down query streams against one member lake. It
// implements query.RemoteOpener.
type Client struct {
	member  string
	baseURL string
	opts    Options
	http    *http.Client
	obs     Observer
}

// New builds a client for one member lake. baseURL is the lake's HTTP
// root (e.g. "http://east.lake:8080"); the client appends /v1/query.
func New(member, baseURL string, opts Options) *Client {
	hc := opts.Client
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = idleConnsPerMember
		hc = &http.Client{Transport: tr}
	}
	return &Client{member: member, baseURL: baseURL, opts: opts, http: hc}
}

// Describe implements query.RemoteOpener: the plan's access-path label.
func (c *Client) Describe() string { return c.baseURL }

// SetObserver installs the telemetry sink (nil disables).
func (c *Client) SetObserver(o Observer) { c.obs = o }

// CloseIdle drops the client's pooled keep-alive connections. The lake
// calls it on Close so a shut-down federation parks no transport
// goroutines; in-flight streams are unaffected.
func (c *Client) CloseIdle() { c.http.CloseIdleConnections() }

func (c *Client) retries() int {
	if c.opts.ConnectRetries < 0 {
		return 0
	}
	if c.opts.ConnectRetries == 0 {
		return DefaultConnectRetries
	}
	return c.opts.ConnectRetries
}

func (c *Client) backoff() time.Duration {
	if c.opts.RetryBackoff > 0 {
		return c.opts.RetryBackoff
	}
	return DefaultRetryBackoff
}

// OpenStream implements query.RemoteOpener: it POSTs the pushed-down
// statement to the member's /v1/query with the streaming accept header
// (batch frames preferred, NDJSON rows accepted) and
// returns the decoded stream. The open is eager — it reads the header
// line before returning, so Columns is known to the union stage without
// a single row having moved. Connect failures retry with capped
// exponential backoff; an HTTP error status decodes the member's typed
// error envelope instead.
func (c *Client) OpenStream(ctx context.Context, spec query.RemoteSpec) (query.BatchScanner, error) {
	start := time.Now()
	sctx := ctx
	cancel := context.CancelFunc(func() {})
	if c.opts.Timeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
	} else {
		sctx, cancel = context.WithCancel(ctx)
	}
	body, err := json.Marshal(map[string]any{"sql": spec.SQL})
	if err != nil {
		cancel()
		return nil, lakeerr.Wrap(lakeerr.CodeInternal, err)
	}
	resp, err := c.connect(sctx, spec, body)
	if err != nil {
		cancel()
		err = c.classify(err)
		c.finish(lakeerr.CodeOf(err), 0, start)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := c.envelopeError(resp)
		_ = resp.Body.Close()
		cancel()
		c.finish(lakeerr.CodeOf(err), 0, start)
		return nil, err
	}
	st := &stream{client: c, resp: resp, cancel: cancel, br: bufio.NewReaderSize(resp.Body, readBufferSize), start: start}
	if err := st.readHeader(sctx); err != nil {
		_ = st.Close()
		return nil, err
	}
	return st, nil
}

// connect performs the POST with connect retries: only transport-level
// failures (no HTTP response at all) retry — the member being slow or
// answering an error is not a connect failure. The backoff sleep aborts
// on context cancellation.
func (c *Client) connect(ctx context.Context, spec query.RemoteSpec, body []byte) (*http.Response, error) {
	delay := c.backoff()
	var lastErr error
	for attempt := 0; attempt <= c.retries(); attempt++ {
		if attempt > 0 {
			if c.obs != nil {
				c.obs.RemoteRetry(c.member)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
			delay *= 2
			if delay > maxRetryBackoff {
				delay = maxRetryBackoff
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", streamAccept)
		if spec.User != "" {
			req.Header.Set("X-Lake-User", spec.User)
		}
		if c.opts.Token != "" {
			req.Header.Set("Authorization", "Bearer "+c.opts.Token)
		}
		if id := obs.RequestID(ctx); id != "" {
			// The member's log and audit lines for this sub-query join
			// the coordinator's on one ID.
			req.Header.Set("X-Request-ID", id)
		}
		resp, err := c.http.Do(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// classify wraps a transport-level failure as a typed unavailable error
// naming the member; context expiry keeps its own classification.
func (c *Client) classify(err error) error {
	if code := lakeerr.CodeOf(err); code == lakeerr.CodeDeadlineExceeded {
		return lakeerr.Errorf(lakeerr.CodeDeadlineExceeded, "remote %s: %v", c.member, err)
	}
	return lakeerr.Errorf(lakeerr.CodeUnavailable, "remote %s: %v", c.member, err)
}

// errEnvelope is the v1 error shape, both as a non-200 response body
// and as the in-band NDJSON trailer.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// envelopeError decodes a non-200 response into a typed error carrying
// the member's own classification (unknown codes degrade to internal).
func (c *Client) envelopeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return lakeerr.Errorf(knownCode(env.Error.Code), "remote %s: %s", c.member, env.Error.Message)
	}
	return lakeerr.Errorf(lakeerr.CodeUnavailable, "remote %s: http %d: %s",
		c.member, resp.StatusCode, bytes.TrimSpace(body))
}

// knownCode maps a wire code string onto the taxonomy, so a remote
// not_found stays a not_found here; anything unrecognized (version
// skew) degrades to internal rather than inventing codes.
func knownCode(s string) lakeerr.Code {
	switch code := lakeerr.Code(s); code {
	case lakeerr.CodeNotFound, lakeerr.CodeUnauthorized, lakeerr.CodeInvalidQuery,
		lakeerr.CodeConflict, lakeerr.CodeUnavailable, lakeerr.CodeInternal,
		lakeerr.CodeDeadlineExceeded, lakeerr.CodeResourceExhausted:
		return code
	}
	return lakeerr.CodeInternal
}

// finish reports one request's telemetry exactly once per stream.
func (c *Client) finish(outcome lakeerr.Code, rows int64, start time.Time) {
	if c.obs == nil {
		return
	}
	label := "ok"
	if outcome != "" {
		label = string(outcome)
	}
	c.obs.RemoteRequest(c.member, label, time.Since(start))
	if rows > 0 {
		c.obs.RemoteRows(c.member, rows)
	}
}

// truncatedErr is the mid-stream connection-drop classification: the
// stream ends with a stats trailer on success and an error
// trailer on failure, so running out of bytes before either one means
// the member (or the network) died — a typed unavailable error, never a
// silent short result.
func (c *Client) truncatedErr(cause error) error {
	if cause == nil || cause == io.EOF {
		return lakeerr.Errorf(lakeerr.CodeUnavailable,
			"remote %s: stream truncated before the stats trailer (connection dropped mid-stream)", c.member)
	}
	return lakeerr.Errorf(lakeerr.CodeUnavailable,
		"remote %s: stream truncated before the stats trailer: %v", c.member, cause)
}
