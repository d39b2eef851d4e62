package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzIngestBody holds decodeIngest to encoding/json, the decoder POST
// /v1/datasets used alone before: the same path, source and content,
// and an error exactly where encoding/json fails. The hand decoder
// must also leave a body it declines as it found it, since
// encoding/json reads that same buffer next. And it must take what an
// encoder writes: the fuzzed bytes, marshalled as a body's content,
// decode by hand, \u escapes included, to what encoding/json reads
// back.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		`{"path":"raw/refunds.csv","source":"erp","content":"id,amt\n1,5\n"}`,
		` {"content" : "a\tb\\c\/d\"e\bf\fg\rh" , "path":"x.csv"} ` + "\n",
		`{"path":"raw/ü.csv","content":"€,ß\n"}`,
		`{}`,
		`{"path":""}`,
		`{"PATH":"raw/a.csv","content":"x"}`,
		`{"Path":"raw/a.csv","Content":"x"}`,
		`{"path":"raw/a.csv","ſource":"folded","content":"x"}`,
		`{"path":"raw/a.csv","Kontent":"not a fold","content":"x"}`,
		`{"path":"raw/a.csv","content":"x","Key":"kelvin"}`,
		`{"path":"raw/a.csv","path":"raw/b.csv","content":"x"}`,
		`{"path":"raw/a.csv","content":"x","content":"y"}`,
		`{"path":"raw/a.csv","content":"\ud800"}`,
		`{"path":"raw/a.csv","content":"\udc00x"}`,
		`{"path":"raw/a.csv","content":"\ud83d\ude00 \uD83D\uDE00"}`,
		`{"path":"raw/a.csv","content":"\ud83d\u0041\ude00\ud83d"}`,
		`{"path":"raw/a.csv","content":"\ud83d\n\ude00\ud83d\ud83d\ude00"}`,
		`{"path":"raw/a.csv","content":"R\u0026D \u003cb\u003e caf\u00e9 \u20ac \u0000 \ufffd"}`,
		`{"path":"raw/\u00fc.csv","source":"\u0065rp","content":"x"}`,
		`{"\u0070ath":"raw/a.csv","content":"x"}`,
		`{"path":"raw/a.csv","content":"\u12"}`,
		`{"path":"raw/a.csv","content":"\u12g4"}`,
		`{"path":"raw/a.csv","content":"\U1234"}`,
		`{"path":"raw/a.csv","content":"😀"}`,
		`{"path":"raw/a.csv","content":"éA"}`,
		"{\"path\":\"raw/a.csv\",\"content\":\"\xff\xfe\"}",
		"{\"path\":\"raw/a.csv\",\"content\":\"\xed\xa0\x80\"}",
		"{\"path\":\"raw/a.csv\",\"content\":\"a\x01b\"}",
		// Raw bytes inside runs of plain ones, where the decoder tests
		// eight bytes at a time.
		"{\"path\":\"raw/a.csv\",\"content\":\"0123456789abcdef\x1f0123456789abcdef\"}",
		"{\"path\":\"raw/a.csv\",\"content\":\"0123456789abcdef\x7f0123456789abcdef\"}",
		"{\"path\":\"raw/a.csv\",\"content\":\"0123456789abcdef\x800123456789abcdef\"}",
		"{\"path\":\"raw/a.csv\",\"content\":\"0123456789abcdef\xc3\xa90123456789abcdef\"}",
		`{"path":"raw/a.csv","content":"0123456789abcdef\"0123456789abcdef\\0123456789abcdef"}`,
		`null`,
		`{"path":null,"content":"x"}`,
		`{"path":"raw/a.csv","content":null}`,
		`{"path":"raw/a.csv","content":5}`,
		`{"path":"raw/a.csv","extra":1,"content":"x"}`,
		`{"path":"raw/a.csv","nested":{"content":"y"},"content":"x"}`,
		`{"path":"raw/a.csv","content":"x"} trailing`,
		`{"path":"raw/a.csv","content":"x"}{"path":"raw/b.csv"}`,
		`{"path":"raw/a.csv","content":"x",}`,
		`{"path":"raw/a.csv" "content":"x"}`,
		`{"path":"raw/a.csv","content":"x\q"}`,
		`{"path":"raw/a.csv","content":"x\`,
		`{"path":"raw/a.csv","content":"x`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		var want ingestRequest
		wantErr := json.NewDecoder(bytes.NewReader(orig)).Decode(&want)
		path, source, data, err := decodeIngest(body)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("body %q: error %v, encoding/json %v", orig, err, wantErr)
		case err == nil && (path != want.Path || source != want.Source || string(data) != want.Content):
			t.Fatalf("body %q: (%q, %q, %q), encoding/json (%q, %q, %q)", orig, path, source, data, want.Path, want.Source, want.Content)
		}

		enc, err := json.Marshal(ingestRequest{Path: "raw/x.csv", Source: "fuzz", Content: string(orig)})
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		path, source, data, ok := fastIngest(enc)
		if !ok || path != "raw/x.csv" || source != "fuzz" || string(data) != want.Content {
			t.Fatalf("encoded body %q: fast path (%q, %q, %q, %v), want %q", enc, path, source, data, ok, want.Content)
		}
	})
}

// A body is read whole whether or not the request declares its length,
// and whether or not that length is past what readBody sizes its
// buffer from: a chunked upload (no Content-Length), a declared one and
// a declared one over maxPreallocBody all land, with the content as it
// was sent.
func TestIngestBodyWithAndWithoutLength(t *testing.T) {
	l := testLake(t)
	h := l.HTTPHandler()
	small := "id,note\n1,\"a\\b\"\n"
	large := "id,note\n" + strings.Repeat("1,\"a\\b\"\n", maxPreallocBody/8)
	for _, tc := range []struct {
		path, content string
		declared      bool
	}{
		{"raw/declared.csv", small, true},
		{"raw/chunked.csv", small, false},
		{"raw/large.csv", large, true},
	} {
		body, err := json.Marshal(ingestRequest{Path: tc.path, Content: tc.content})
		if err != nil {
			t.Fatal(err)
		}
		var rd io.Reader = bytes.NewReader(body)
		if !tc.declared {
			rd = io.MultiReader(rd) // a reader of unknown length
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets", rd)
		req.Header.Set("X-Lake-User", "dana")
		if (req.ContentLength >= 0) != tc.declared {
			t.Fatalf("%s: Content-Length %d", tc.path, req.ContentLength)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s: %d %s", tc.path, rec.Code, rec.Body)
		}
		if raw, err := l.Poly.Files.Get(tc.path); err != nil || string(raw) != tc.content {
			t.Errorf("%s: stored %d bytes, want %d (%v)", tc.path, len(raw), len(tc.content), err)
		}
	}
}

// sendPieces posts body to the lake's ingest route over a raw
// connection, in pieces with pause between them, and reads the answer.
// A write the server refuses, having answered, ends the pieces.
func sendPieces(t *testing.T, srv *httptest.Server, body string, pieces []string, pause time.Duration) (*http.Response, []byte, time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/datasets HTTP/1.1\r\nHost: lake\r\nX-Lake-User: dana\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	for i, p := range pieces {
		if i > 0 {
			time.Sleep(pause)
		}
		if _, err := io.WriteString(conn, p); err != nil {
			break
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out, time.Since(start)
}

// A client that stalls its body past bodyReadTimeout between two reads
// is answered deadline_exceeded and its handler returns; one that
// trickles its body, each piece within the bound and the whole within
// bodyTotalTimeout, still lands.
func TestIngestBodyStallTimesOut(t *testing.T) {
	defer func(d, total time.Duration) { bodyReadTimeout, bodyTotalTimeout = d, total }(bodyReadTimeout, bodyTotalTimeout)
	bodyReadTimeout, bodyTotalTimeout = 300*time.Millisecond, 3*time.Second
	l := testLake(t)
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	body := `{"path":"raw/slow.csv","content":"id,v\n1,2\n"}`
	resp, out, took := sendPieces(t, srv, body, []string{body[:10]}, 0)
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(out), `"code":"deadline_exceeded"`) {
		t.Errorf("stalled body: %d %s, want 504 deadline_exceeded", resp.StatusCode, out)
	}
	if took < bodyReadTimeout || took > 5*time.Second {
		t.Errorf("stalled body answered after %v, want just past %v", took, bodyReadTimeout)
	}
	resp, out, _ = sendPieces(t, srv, body, []string{body[:10], body[10:20], body[20:]}, bodyReadTimeout/2)
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("trickled body: %d %s, want 201", resp.StatusCode, out)
	}
}

// A client that trickles its body, each piece within bodyReadTimeout,
// for longer than bodyTotalTimeout is answered deadline_exceeded once
// the whole-body bound has passed: renewing the per-read deadline does
// not keep its handler.
func TestIngestBodyTrickleTimesOut(t *testing.T) {
	defer func(d, total time.Duration) { bodyReadTimeout, bodyTotalTimeout = d, total }(bodyReadTimeout, bodyTotalTimeout)
	bodyReadTimeout, bodyTotalTimeout = 300*time.Millisecond, 600*time.Millisecond
	l := testLake(t)
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	body := `{"path":"raw/trickle.csv","content":"id,v\n1,2\n"}`
	var pieces []string
	for i := 0; i < len(body); i += 4 {
		pieces = append(pieces, body[i:min(i+4, len(body))])
	}
	// 13 pieces 100 ms apart, 1.2 s in all: each gap is a third of the
	// per-read bound, the whole twice the whole-body bound.
	resp, out, took := sendPieces(t, srv, body, pieces, bodyReadTimeout/3)
	if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(out), `"code":"deadline_exceeded"`) {
		t.Errorf("trickled body: %d %s, want 504 deadline_exceeded", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "not received within") {
		t.Errorf("trickled body: message %s, want the whole-body bound", out)
	}
	if took < bodyTotalTimeout || took > 5*time.Second {
		t.Errorf("trickled body answered after %v, want just past %v", took, bodyTotalTimeout)
	}
	if _, err := l.Poly.Files.Get("raw/trickle.csv"); err == nil {
		t.Error("a body cut off by the whole-body bound was stored")
	}
}

// TestIngestBodyDeadlineCleared: a handler that runs on past the read
// bound after reading its body keeps its request context. The server
// reads the connection in the background once the body is read, and
// for an empty body it starts that read before the handler runs: with
// the deadline left armed, that read times out and cancels the
// context.
func TestIngestBodyDeadlineCleared(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 100 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := readBody(w, r); err != nil {
			fmt.Fprintf(w, "read: %v", err)
			return
		}
		time.Sleep(4 * bodyReadTimeout)
		fmt.Fprintf(w, "context: %v", r.Context().Err())
	}))
	defer srv.Close()
	for _, body := range []string{"", `{"path":"raw/a.csv","content":"id\n1\n"}`} {
		resp, err := srv.Client().Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(out) != "context: <nil>" {
			t.Errorf("body %q: handler saw %q, want an uncancelled context", body, out)
		}
	}
}

// A body past maxBodyBytes is answered invalid_query, naming the cap,
// on the ingest route; under the cap it lands. The query route refuses
// such a body too.
func TestIngestBodyOverCap(t *testing.T) {
	defer func(n int64) { maxBodyBytes = n }(maxBodyBytes)
	maxBodyBytes = 64
	h := testLake(t).HTTPHandler()
	post := func(route, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, route, strings.NewReader(body))
		req.Header.Set("X-Lake-User", "dana")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := post("/v1/datasets", `{"path":"raw/a.csv","content":"id\n1\n"}`); rec.Code != http.StatusCreated {
		t.Errorf("body under the cap: %d %s, want 201", rec.Code, rec.Body)
	}
	big := `{"path":"raw/b.csv","content":"id\n` + strings.Repeat("1\n", 40) + `"}`
	rec := post("/v1/datasets", big)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"code":"invalid_query"`) || !strings.Contains(rec.Body.String(), "64-byte cap") {
		t.Errorf("body over the cap: %d %s, want 400 invalid_query naming the 64-byte cap", rec.Code, rec.Body)
	}
	if rec := post("/v1/query", `{"sql":"SELECT id FROM rel:a WHERE id = '`+strings.Repeat("1", 64)+`'"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("query body over the cap: %d %s, want 400", rec.Code, rec.Body)
	}
}
