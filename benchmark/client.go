package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

const ndjsonAccept = "application/x-ndjson"

// request is one HTTP exchange and the gate its answer must pass.
type request struct {
	method string
	path   string // URL path and query, appended to the server root
	body   []byte
	// ndjson, when set, asks for the streamed protocol and checks the
	// stream against it; otherwise the body is read whole, the status
	// must equal status, and check (optional) judges the body.
	ndjson *expectation
	status int
	check  func(body []byte) error
}

// op is what one client does between two latency timestamps: a single
// request, or for a journey several in sequence.
type op struct {
	class string
	tag   string // what the op acted on, for checks made after the phase
	steps []request
}

// queryRequest streams one statement and checks the answer against exp.
func queryRequest(sql string, exp expectation) request {
	return request{
		method: http.MethodPost, path: "/v1/query",
		body:   []byte(fmt.Sprintf(`{"sql":%q}`, sql)),
		ndjson: &exp,
	}
}

func queryOp(class, sql string, exp expectation) op {
	return op{class: class, steps: []request{queryRequest(sql, exp)}}
}

// sample is the outcome of one op.
type sample struct {
	class    string
	tag      string
	done     time.Duration // completion time since the phase began
	latency  time.Duration // first request written → last byte read
	firstRow time.Duration // columns header → first row line; 0 without rows
	err      error
}

// client is one closed-loop user: one keep-alive connection, one
// identity, the next request only after the previous answer's last byte.
type client struct {
	base string
	user string
	http *http.Client
	br   *bufio.Reader
	rec  *recorder // nil unless the run is traced
}

func newClient(base, user string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, user: user, http: &http.Client{Transport: tr}, br: bufio.NewReaderSize(nil, 64<<10)}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// exchange performs one request and applies its gate.
func (c *client) exchange(ctx context.Context, r *request) (firstRow time.Duration, err error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Lake-User", c.user)
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.ndjson != nil {
		req.Header.Set("Accept", ndjsonAccept)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if r.ndjson != nil {
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return 0, fmt.Errorf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, bytes.TrimSpace(b))
		}
		header := time.Now()
		c.br.Reset(resp.Body)
		first, err := checkNDJSON(c.br, r.ndjson)
		if !first.IsZero() {
			firstRow = first.Sub(header)
		}
		if err != nil {
			return firstRow, fmt.Errorf("%s %s: %w", r.method, r.path, err)
		}
		return firstRow, nil
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: read body: %w", r.method, r.path, err)
	}
	if resp.StatusCode != r.status {
		return 0, fmt.Errorf("%s %s: status %d, want %d: %.200s", r.method, r.path, resp.StatusCode, r.status, bytes.TrimSpace(b))
	}
	if r.check != nil {
		if err := r.check(b); err != nil {
			return 0, fmt.Errorf("%s %s: %w", r.method, r.path, err)
		}
	}
	return 0, nil
}

// do runs one op. A failed step fails the op and skips the steps after
// it, which depend on it.
func (c *client) do(ctx context.Context, o *op, phaseStart time.Time) sample {
	s := sample{class: o.class, tag: o.tag}
	start := time.Now()
	for i := range o.steps {
		first, err := c.exchange(ctx, &o.steps[i])
		if first > 0 {
			s.firstRow = first
		}
		if err != nil {
			s.err = err
			break
		}
	}
	end := time.Now()
	s.latency = end.Sub(start)
	s.done = end.Sub(phaseStart)
	if c.rec != nil {
		c.rec.add(span{Name: "client." + o.class, Start: start, End: end})
	}
	return s
}

// script is what one client plays during the measured phase: a fixed op
// list, or — background clients — a rotation repeated until every fixed
// list has been played out.
type script struct {
	ops  []op
	loop bool
}

// phaseResult is everything measured between the first and the last op
// of a phase.
type phaseResult struct {
	samples []sample
	start   time.Time
	wall    time.Duration
	mallocs uint64
}

// runPhase plays the scripts, one per client, concurrently. The phase
// ends when every non-looping script is done; a looping client finishes
// the op it is in.
func runPhase(ctx context.Context, clients []*client, scripts []script) phaseResult {
	var before, after runtime.MemStats
	perClient := make([][]sample, len(clients))
	var fixed, all sync.WaitGroup
	stop := make(chan struct{})
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := range clients {
		all.Add(1)
		if !scripts[i].loop {
			fixed.Add(1)
		}
		go func(c *client, sc script, out *[]sample) {
			defer all.Done()
			if !sc.loop {
				defer fixed.Done()
				for j := range sc.ops {
					*out = append(*out, c.do(ctx, &sc.ops[j], start))
				}
				return
			}
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				*out = append(*out, c.do(ctx, &sc.ops[j%len(sc.ops)], start))
			}
		}(clients[i], scripts[i], &perClient[i])
	}
	fixed.Wait()
	close(stop)
	all.Wait()
	res := phaseResult{start: start, wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	for _, ss := range perClient {
		res.samples = append(res.samples, ss...)
	}
	return res
}
