package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"golake/internal/ndjson"
	"golake/internal/obs"
	"golake/internal/query"
	"golake/lakeerr"
)

// offline is the client of streams that never touch the network.
var offline = New("east", "http://unused.invalid", Options{})

// decodeStream opens a stream over raw bytes — no HTTP — through a
// line reader of bufSize, and drains it through the batch face at
// batchRows rows a batch, returning the rows and the row lines the
// batches write, as a coordinator would write them.
func decodeStream(r io.Reader, bufSize, batchRows int) ([]string, [][]string, []byte, error) {
	st := &stream{client: offline, br: bufio.NewReaderSize(r, bufSize)}
	ctx := context.Background()
	if err := st.readHeader(ctx); err != nil {
		return nil, nil, nil, err
	}
	var rows [][]string
	var lines []byte
	for {
		b, err := st.NextBatch(ctx, batchRows)
		if errors.Is(err, io.EOF) {
			return st.Columns(), rows, lines, nil
		}
		if err != nil {
			return st.Columns(), rows, lines, err
		}
		if b.Len() == 0 || b.Len() > batchRows {
			return nil, nil, nil, fmt.Errorf("batch of %d rows at batchRows %d", b.Len(), batchRows)
		}
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
			lines = b.AppendRowJSON(lines, i)
		}
	}
}

// TestDecodeAcrossRefillsAndBatchSizes: wherever the bytes of a stream
// are cut between two reads, however small the read buffer is against
// the longest line, and whatever the batch size, the same rows come
// out.
func TestDecodeAcrossRefillsAndBatchSizes(t *testing.T) {
	want := [][]string{
		{"ams", "10"},
		{`q"uote\`, "<&>"},
		{"", "line\u2028sep"},
		{strings.Repeat("long cell ", 40), "caf\u00e9"}, // longer than any buffer below
		{"tab\there", ""},
	}
	var wire []byte
	wire = append(wire, `{"columns":["city","price"]}`+"\n"...)
	for _, row := range want {
		wire = ndjson.AppendRow(wire, row)
	}
	wire = append(wire, `{"stats":{"rows_out":5}}`+"\n"...)

	check := func(name string, r io.Reader, bufSize, batchRows int) {
		t.Helper()
		cols, got, _, err := decodeStream(r, bufSize, batchRows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(cols, []string{"city", "price"}) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: columns %q rows %q, want %q", name, cols, got, want)
		}
	}
	for _, batchRows := range []int{1, 7, 1024} {
		for _, bufSize := range []int{16, 64, readBufferSize} {
			for cut := 0; cut <= len(wire); cut++ {
				r := io.MultiReader(bytes.NewReader(wire[:cut]), bytes.NewReader(wire[cut:]))
				check(fmt.Sprintf("batch %d, buffer %d, cut at %d", batchRows, bufSize, cut), r, bufSize, batchRows)
			}
			check(fmt.Sprintf("batch %d, buffer %d, one byte a read", batchRows, bufSize),
				iotest.OneByteReader(bytes.NewReader(wire)), bufSize, batchRows)
		}
	}

	// Cut short anywhere before the trailer's newline, the stream is a
	// typed truncation holding a prefix of the rows — never a clean end.
	for cut := 0; cut < len(wire); cut++ {
		_, got, _, err := decodeStream(bytes.NewReader(wire[:cut]), 64, 7)
		if lakeerr.CodeOf(err) != lakeerr.CodeUnavailable || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut at %d: err = %v, want a typed truncation", cut, err)
		}
		if len(got) > len(want) || len(got) > 0 && !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("cut at %d: rows %q are not a prefix of %q", cut, got, want)
		}
	}
}

// TestBadRowFramesAreTypedErrors: a row line that is not an array of
// exactly the header's width of strings fails the stream with a typed
// error after the rows before it, and stays failed.
func TestBadRowFramesAreTypedErrors(t *testing.T) {
	for _, bad := range []string{`["ragged"]`, `["a","b","c"]`, `["a",1]`, `["a",["b"]]`, `["a","unterminated]`, `["a","\x"]`, `[`} {
		h := &memberHandler{
			cols:  `{"columns":["c","d"]}`,
			lines: []string{`["r1","1"]`, `["r2","2"]`, bad, `["r3","3"]`, `{"stats":{}}`},
		}
		it, err := openStream(t, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drain(t, it)
		if len(rows) != 2 || rows[1][0] != "r2" {
			t.Errorf("%s: rows before the bad frame = %q", bad, rows)
		}
		if lakeerr.CodeOf(err) != lakeerr.CodeInternal || !strings.Contains(err.Error(), "bad row frame") {
			t.Errorf("%s: err = %v, want a typed bad-row-frame error", bad, err)
		}
		if _, err2 := it.Next(context.Background()); !errors.Is(err2, err) {
			t.Errorf("%s: error is not sticky: %v", bad, err2)
		}
		_ = it.Close()
	}

	// Batch frames whose header or payload breaks a bound: the length
	// prefix over the ceiling (refused before anything is allocated for
	// it), a row count over the cap, a column whose offsets and flags
	// run past the payload, offsets that run backwards or past the
	// payload, a flag that is neither 0 nor 1, bytes after the last
	// column.
	header := func(n uint32) []byte {
		h := []byte{query.FrameMarker}
		h = binary.LittleEndian.AppendUint32(h, n)
		return binary.LittleEndian.AppendUint32(h, 0)
	}
	le := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, bad := range []struct {
		name, want string
		frame      []byte
	}{
		{"length over the ceiling", "over the 67108864-byte ceiling", header(query.MaxFramePayload + 1)},
		{"length 4 GiB", "4294967295-byte payload", header(0xFFFFFFFF)},
		{"rows over the cap", "over the 65536-row limit", refFrameOf(le(query.MaxFrameRows + 1))},
		{"rows past the payload", "do not fit", refFrameOf(le(1000, 1))},
		{"second column past the payload", "run past", refFrameOf(cat(le(1, 1), []byte{1, '0'}, []byte("0000")))},
		{"offsets backwards", "outside", refFrameOf(cat(le(2, 2, 1), []byte{0, 0, 'a', 'b'}, le(0, 0), []byte{0, 0}))},
		{"offset past the payload", "outside", refFrameOf(cat(le(1, 9), []byte{0, 'a'}, le(0), []byte{0}))},
		{"flag out of range", "flag 2", refFrameOf(cat(le(1, 1), []byte{2, 'a'}, le(0), []byte{0}))},
		{"trailing bytes", "after the last column", refFrameOf(cat(le(1, 1), []byte{0, 'a'}, le(0), []byte{0, 'x'}))},
	} {
		h := &memberHandler{
			cols:  `{"columns":["c","d"]}`,
			lines: []string{`["r1","1"]`, `["r2","2"]`, string(bad.frame), `["r3","3"]`, `{"stats":{}}`},
		}
		it, err := openStream(t, h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drain(t, it)
		if len(rows) != 2 || rows[1][0] != "r2" {
			t.Errorf("%s: rows before the bad frame = %q", bad.name, rows)
		}
		if lakeerr.CodeOf(err) != lakeerr.CodeInternal || !strings.Contains(err.Error(), "remote east: bad batch frame") || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want a typed bad-batch-frame error saying %q", bad.name, err, bad.want)
		}
		if _, err2 := it.Next(context.Background()); !errors.Is(err2, err) {
			t.Errorf("%s: error is not sticky: %v", bad.name, err2)
		}
		_ = it.Close()
	}
}

// TestBatchFace drives the face the engine uses: batches of the size
// it asks for, the in-band error delivered after the rows before it.
func TestBatchFace(t *testing.T) {
	h := &memberHandler{cols: `{"columns":["c"]}`}
	for i := 0; i < 10; i++ {
		h.lines = append(h.lines, fmt.Sprintf(`["r%d"]`, i))
	}
	h.lines = append(h.lines, `{"error":{"code":"deadline_exceeded","message":"too slow"}}`)
	it, err := openStream(t, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	bs, ok := it.(query.BatchScanner)
	if !ok {
		t.Fatal("remote stream has no batch face")
	}
	ctx := context.Background()
	var sizes []int
	for {
		b, err := bs.NextBatch(ctx, 4)
		if err != nil {
			if lakeerr.CodeOf(err) != lakeerr.CodeDeadlineExceeded {
				t.Fatalf("terminal err = %v, want the member's deadline_exceeded", err)
			}
			break
		}
		sizes = append(sizes, b.Len())
		if got := b.Vector(0).Cell(0); got != fmt.Sprintf("r%d", 4*(len(sizes)-1)) {
			t.Errorf("batch %d starts at %q", len(sizes), got)
		}
	}
	if !reflect.DeepEqual(sizes, []int{4, 4, 2}) {
		t.Errorf("batch sizes = %v, want [4 4 2]", sizes)
	}
}

// TestClientsDoNotShareConnections pins the transport satellite: each
// client pools its own keep-alive connections, so one client's
// CloseIdle (a lake closing) leaves another's pooled connection
// reusable, and two cleanly-ended streams of one client share a
// connection.
func TestClientsDoNotShareConnections(t *testing.T) {
	h := &memberHandler{cols: `{"columns":["c"]}`, lines: []string{`["v"]`, `{"stats":{}}`}}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	reused := func(c *Client) bool {
		t.Helper()
		var info httptrace.GotConnInfo
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(i httptrace.GotConnInfo) { info = i },
		})
		it, err := c.OpenStream(ctx, query.RemoteSpec{SQL: "SELECT c FROM t"})
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := drain(t, it); err != nil || len(rows) != 1 {
			t.Fatalf("drain = %v, %v", rows, err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		return info.Reused
	}
	a, b := New("a", srv.URL, Options{}), New("b", srv.URL, Options{})
	t.Cleanup(a.CloseIdle)
	t.Cleanup(b.CloseIdle)
	if reused(a) || reused(b) {
		t.Fatal("a first request found a pooled connection: the clients share a transport with something")
	}
	if !reused(a) {
		t.Error("a cleanly-ended stream did not leave its connection reusable")
	}
	b.CloseIdle()
	if !reused(a) {
		t.Error("one client's CloseIdle closed another client's pooled connection")
	}
	if reused(b) {
		t.Error("CloseIdle left the client's own pooled connection open")
	}
}

// TestOpenStreamForwardsRequestID: the request ID the coordinator's
// middleware put on the context rides the hop, so the member's log
// lines join the coordinator's; without one the header is absent and
// the member mints its own.
func TestOpenStreamForwardsRequestID(t *testing.T) {
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get("X-Request-ID"))
		fmt.Fprintln(w, `{"columns":["c"]}`)
		fmt.Fprintln(w, `{"stats":{}}`)
	}))
	t.Cleanup(srv.Close)
	c := New("east", srv.URL, Options{})
	t.Cleanup(c.CloseIdle)
	for _, ctx := range []context.Context{
		obs.WithRequestID(context.Background(), "trace-me-42"),
		context.Background(),
	} {
		it, err := c.OpenStream(ctx, query.RemoteSpec{SQL: "SELECT c FROM t"})
		if err != nil {
			t.Fatal(err)
		}
		_ = it.Close()
	}
	if !reflect.DeepEqual(got, []string{"trace-me-42", ""}) {
		t.Errorf("X-Request-ID seen by the member = %q", got)
	}
}
