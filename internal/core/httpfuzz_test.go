package core

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golake/internal/persist"
	"golake/internal/storage/filestore"
)

// fuzzLake opens a durable lake in root/lake with dana registered and a
// table and a collection ingested, and returns its handler and root.
// Nothing but the lake directory may ever appear under root.
func fuzzLake(f *testing.F) (http.Handler, string) {
	root := f.TempDir()
	dir := filepath.Join(root, "lake")
	b, err := persist.NewLocal(filepath.Join(dir, filestore.PersistDir))
	if err != nil {
		f.Fatal(err)
	}
	l, err := Open(dir, WithPersistence(b))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = l.Close() })
	l.AddUser("dana", RoleDataScientist)
	for path, data := range map[string]string{
		"raw/orders.csv":   "id,status,total\n1,open,10.5\n2,closed,3\n3,open,22\n",
		"raw/events.jsonl": `{"kind":"click","n":1}` + "\n" + `{"kind":"view","n":2,"meta":{"a":1}}` + "\n",
	} {
		if _, err := l.Ingest(context.Background(), path, []byte(data), "fuzz", "dana"); err != nil {
			f.Fatal(err)
		}
	}
	return l.HTTPHandler(), root
}

// postFuzz posts body as dana and holds the reply to what every reply
// to an untrusted body must be: no 5xx unless allowed says the request
// asked for it, and every non-2xx reply the {"error":{"code","message"}}
// envelope.
func postFuzz(t *testing.T, h http.Handler, path string, body []byte, allowed func(status int, code string) bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("X-Lake-User", "dana")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code/100 == 2 {
		return rec
	}
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("POST %s %q: status %d, body %q is not the error envelope (%v)", path, body, rec.Code, rec.Body, err)
	}
	if rec.Code >= 500 && !allowed(rec.Code, env.Error.Code) {
		t.Fatalf("POST %s %q: status %d %s", path, body, rec.Code, rec.Body)
	}
	return rec
}

// FuzzV1QueryBody drives POST /v1/query with arbitrary bodies. The one
// 5xx a body may earn is 504 deadline_exceeded, and only by asking for
// a timeout.
func FuzzV1QueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"sql":"SELECT id, total FROM rel:orders WHERE status = 'open' ORDER BY total DESC LIMIT 2"}`,
		`{"sql":"SELECT * FROM rel:orders, doc:events, file:raw/","fanin":4,"batch_rows":1,"shards":3}`,
		`{"sql":"EXPLAIN ANALYZE SELECT kind FROM doc:events WHERE n >= 2","order":[{"column":"kind","desc":true}]}`,
		`{"sql":"SELECT * FROM orders","explain":true,"limit":1,"memory_rows":1,"buffer_rows":2}`,
		`{"sql":"SELECT * FROM graph:person","timeout_ms":1000}`,
		`{"sql":"SELEKT","fanin":-1}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	h, _ := fuzzLake(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		postFuzz(t, h, "/v1/query", body, func(status int, code string) bool {
			var req queryRequest
			_ = json.Unmarshal(body, &req)
			return status == http.StatusGatewayTimeout && code == "deadline_exceeded" && req.TimeoutMS != nil && *req.TimeoutMS > 0
		})
	})
}

// FuzzV1DatasetsBody drives POST /v1/datasets with arbitrary bodies:
// no 5xx, and an accepted dataset's path is local to the lake — clean,
// relative, outside .golake — while nothing is written beside the lake
// directory.
func FuzzV1DatasetsBody(f *testing.F) {
	for _, seed := range []string{
		`{"path":"raw/refunds.csv","source":"erp","content":"id,amt\n1,5\n"}`,
		`{"path":"raw/ev.jsonl","content":"{\"a\":1}\n{\"a\":null}\n"}`,
		`{"path":"raw/q1..q2.csv","content":"a\n1\n"}`,
		`{"path":"../../escape.csv","content":"a\n1\n"}`,
		`{"path":"/abs/./x/../y.json","content":"[{\"k\":[1,2]}]"}`,
		`{"path":".golake/wal","content":"x"}`,
		`{"path":"raw/orders.csv","content":"dup"}`,
		`{"content":"no path"}`,
		`[]`,
		`{"path":"raw/n.jsonl","content":"null\n"}`,
	} {
		f.Add([]byte(seed))
	}
	h, root := fuzzLake(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postFuzz(t, h, "/v1/datasets", body, func(int, string) bool { return false })
		if rec.Code == http.StatusCreated {
			var created struct {
				Path string `json:"path"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
				t.Fatalf("201 body %q: %v", rec.Body, err)
			}
			p := filepath.FromSlash(created.Path)
			if !filepath.IsLocal(p) || filepath.Clean(p) != p || created.Path == filestore.PersistDir || strings.HasPrefix(created.Path, filestore.PersistDir+"/") {
				t.Fatalf("body %q stored under path %q, which is not local to the lake", body, created.Path)
			}
		}
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "lake" {
			t.Fatalf("body %q: %d entries beside the lake directory", body, len(entries))
		}
	})
}
