package core

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golake/internal/storage/filestore"
	"golake/internal/table"
	"golake/lakeerr"
)

// filesOutsidePersistDir lists every file under dir except the lake's
// own .golake directory.
func filesOutsidePersistDir(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == filestore.PersistDir {
			return fs.SkipDir
		}
		if !d.IsDir() {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// An ingest path is refused only for a ".." element, an empty path or
// one under .golake, as a 400 invalid_query, before anything is written;
// ".." inside a name is fine.
func TestIngestPathCheck(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l := openPersistent(t, dir)
	defer l.Close()
	l.AddUser("dana", RoleDataScientist)
	srv := httptest.NewServer(l.HTTPHandler())
	defer srv.Close()
	body := []byte("id,v\n1,2\n")

	for _, bad := range []string{"raw/../../etc/x.csv", "../x.csv", ".golake/wal.log", ".golake", "/", "."} {
		if _, err := l.Ingest(ctx, bad, body, "erp", "dana"); lakeerr.CodeOf(err) != lakeerr.CodeInvalidQuery {
			t.Errorf("Ingest(%q) = %v, want invalid_query", bad, err)
		}
		resp, out := do(t, srv, http.MethodPost, "/v1/datasets", "dana",
			`{"path":"`+bad+`","content":"id,v\n1,2\n"}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), `"invalid_query"`) {
			t.Errorf("POST /v1/datasets %q = %d %s, want 400 invalid_query", bad, resp.StatusCode, out)
		}
	}
	if got := segmentFiles(t, dir); len(got) != 0 {
		t.Errorf("refused ingests left segments %v", got)
	}
	if got := l.Catalog.List(); len(got) != 0 {
		t.Errorf("refused ingests catalogued %v", got)
	}

	if _, err := l.Ingest(ctx, "raw/q1..q2.csv", body, "erp", "dana"); err != nil {
		t.Errorf("Ingest(raw/q1..q2.csv) = %v, want success", err)
	}
	resp, out := do(t, srv, http.MethodPost, "/v1/datasets", "dana",
		`{"path":"raw/q3..q4.csv","content":"id,w\n1,2\n"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("POST /v1/datasets raw/q3..q4.csv = %d %s, want 201", resp.StatusCode, out)
	}
	if got, err := l.Poly.Files.Get("raw/q1..q2.csv"); err != nil || !bytes.Equal(got, body) {
		t.Errorf("Get(raw/q1..q2.csv) = %q, %v", got, err)
	}
}

// A durable lake keeps each raw object once, in its segment: nothing
// lands under the lake directory outside .golake, and Files.Get reads
// the segment live, after a hard stop, and after Close. A lake without
// persistence writes nothing at all and serves Get from memory.
func TestRawBytesLandOnce(t *testing.T) {
	ctx := context.Background()
	objects := map[string][]byte{
		"raw/orders.csv":   []byte("id,total\n1,10\n2,20\n"),
		"raw/events.jsonl": []byte("{\"k\":\"a\"}\n{\"k\":\"b\"}\n"),
		"raw/blob.bin":     {0xff, 0xfe, 0x00, 0x01, 0x80},
	}
	checkGet := func(t *testing.T, l *Lake, when string) {
		t.Helper()
		for path, want := range objects {
			if got, err := l.Poly.Files.Get(path); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: Get(%s) = %q, %v; want %q", when, path, got, err, want)
			}
		}
	}

	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		l := openPersistent(t, dir)
		l.AddUser("dana", RoleDataScientist)
		l.AddUser("carl", RoleCurator)
		for path, data := range objects {
			if _, err := l.Ingest(ctx, path, data, "src", "dana"); err != nil {
				t.Fatal(err)
			}
		}
		if got := filesOutsidePersistDir(t, dir); len(got) != 0 {
			t.Errorf("files outside %s: %v", filestore.PersistDir, got)
		}
		if got := segmentFiles(t, dir); len(got) != len(objects) {
			t.Errorf("segments = %v, want one per object (%d)", got, len(objects))
		}
		checkGet(t, l, "live")

		hard := openPersistent(t, dir) // l abandoned without Close
		checkGet(t, hard, "after a hard stop")
		if err := hard.Close(); err != nil {
			t.Fatal(err)
		}
		re := openPersistent(t, dir)
		defer re.Close()
		checkGet(t, re, "after Close")
		if got := filesOutsidePersistDir(t, dir); len(got) != 0 {
			t.Errorf("files outside %s after reopens: %v", filestore.PersistDir, got)
		}

		if err := re.Evict(ctx, "carl", "raw/orders.csv"); err != nil {
			t.Fatal(err)
		}
		if err := re.pers.checkpoint(re); err != nil {
			t.Fatal(err)
		}
		if _, err := re.Poly.Files.Get("raw/orders.csv"); !errors.Is(err, filestore.ErrNotFound) {
			t.Errorf("Get after Evict and a checkpoint = %v, want ErrNotFound", err)
		}
		if got := segmentFiles(t, dir); len(got) != len(objects)-1 {
			t.Errorf("segments after Evict and a checkpoint = %v, want %d", got, len(objects)-1)
		}
	})

	t.Run("in memory", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		l.AddUser("dana", RoleDataScientist)
		for path, data := range objects {
			if _, err := l.Ingest(ctx, path, data, "src", "dana"); err != nil {
				t.Fatal(err)
			}
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("lake directory holds %v (%v), want nothing", entries, err)
		}
		checkGet(t, l, "in memory")
	})
}

// A lake opened over a directory of files it never ingested does not
// adopt them: file:raw lists only what was ingested, with or without
// persistence.
func TestStrayFilesAreNotAdopted(t *testing.T) {
	ctx := context.Background()
	for name, open := range map[string]func(t *testing.T, dir string) *Lake{
		"in memory": func(t *testing.T, dir string) *Lake {
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		"durable": func(t *testing.T, dir string) *Lake { return openPersistent(t, dir) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "raw"), 0o755); err != nil {
				t.Fatal(err)
			}
			for _, stray := range []string{"raw/stray.csv", "raw/notes.txt"} {
				if err := os.WriteFile(filepath.Join(dir, stray), []byte("a,b\n1,2\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l := open(t, dir)
			defer l.Close()
			l.AddUser("dana", RoleDataScientist)
			got, err := l.QuerySQL(ctx, "dana", "SELECT path FROM file:raw")
			if err != nil {
				t.Fatal(err)
			}
			if got.NumRows() != 0 {
				t.Errorf("file:raw before any ingest = %q, want no rows", table.ToCSV(got))
			}
			if _, err := l.Ingest(ctx, "raw/mine.csv", []byte("c,d\n3,4\n"), "src", "dana"); err != nil {
				t.Fatal(err)
			}
			got, err = l.QuerySQL(ctx, "dana", "SELECT path FROM file:raw")
			if err != nil {
				t.Fatal(err)
			}
			if csv := table.ToCSV(got); csv != "path\nraw/mine.csv\n" {
				t.Errorf("file:raw = %q, want only raw/mine.csv", csv)
			}
		})
	}
}
