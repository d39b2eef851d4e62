package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"golake/internal/ndjson"
	"golake/internal/persist"
	"golake/internal/query"
	"golake/lakeerr"
)

// batchOf builds a batch of rows (row-major) over width columns.
func batchOf(rows [][]string, width int) *query.Batch {
	vecs := make([]*query.Vector, width)
	for j := range vecs {
		run := make([]string, len(rows))
		for i, row := range rows {
			run[i] = row[j]
		}
		vecs[j] = query.NewVector(run)
	}
	return query.NewBatch(vecs)
}

// encodeFrame encodes rows as one batch frame with the encoder a member
// uses.
func encodeFrame(rows [][]string, width int) []byte {
	enc := query.NewFrameEncoder(width)
	return enc.AppendPending(enc.AppendBatch(nil, batchOf(rows, width)))
}

// refFrame is the frame format written out independently of the
// encoder: the WAL's record frame behind the marker, a row count, and
// per column the end offsets, the flags and the cell bytes.
func refFrame(rows [][]string, flags [][]byte, width int) []byte {
	return refFrameOf(refPayload(rows, flags, width))
}

func refPayload(rows [][]string, flags [][]byte, width int) []byte {
	p := binary.LittleEndian.AppendUint32(nil, uint32(len(rows)))
	for j := 0; j < width; j++ {
		end := 0
		for _, row := range rows {
			end += len(row[j])
			p = binary.LittleEndian.AppendUint32(p, uint32(end))
		}
		for i := range rows {
			p = append(p, flags[i][j])
		}
		for _, row := range rows {
			p = append(p, row[j]...)
		}
	}
	return p
}

func refFrameOf(payload []byte) []byte {
	return append([]byte{query.FrameMarker}, persist.EncodeFrame(payload)...)
}

// TestFrameLayoutIsTheWALFrame pins the encoder to the stated layout:
// the marker, then persist.EncodeFrame of the column-major payload.
func TestFrameLayoutIsTheWALFrame(t *testing.T) {
	rows := [][]string{{"ams", "10"}, {`q"uote`, ""}, {"café", "7"}}
	flags := [][]byte{{0, 0}, {0, 0}, {0, 0}}
	if got, want := encodeFrame(rows, 2), refFrame(rows, flags, 2); !bytes.Equal(got, want) {
		t.Fatalf("frame\n%q, want\n%q", got, want)
	}
}

// TestFramedStreamCutAtEveryByte: a framed member response — header,
// frames with a row line between them, trailer — decodes to its rows
// whatever the read buffer and batch size; cut short at any byte it is
// a typed truncation holding a prefix of the rows; a flipped byte in a
// frame's payload is a typed internal error.
func TestFramedStreamCutAtEveryByte(t *testing.T) {
	want := [][]string{
		{"ams", "10"},
		{`q"uote\`, "<&>"},
		{"", "line\u2028sep"},
		{strings.Repeat("long cell ", 40), "café"},
		{"tab\there", ""},
		{"bad\xffutf8", "\x01"},
	}
	var wire []byte
	var payloads [][2]int // [start, end) of each frame's payload in wire
	frame := func(rows [][]string) {
		start := len(wire) + query.FrameHeaderLen
		wire = append(wire, encodeFrame(rows, 2)...)
		payloads = append(payloads, [2]int{start, len(wire)})
	}
	wire = append(wire, `{"columns":["city","price"]}`+"\n"...)
	frame(want[:2])
	wire = ndjson.AppendRow(wire, want[2])
	frame(want[3:5])
	frame(want[5:])
	wire = append(wire, `{"stats":{"rows_out":6}}`+"\n"...)

	var wantLines []byte
	for _, row := range want {
		wantLines = ndjson.AppendRow(wantLines, row)
	}
	for _, batchRows := range []int{1, 2, 1024} {
		for _, bufSize := range []int{16, 64, readBufferSize} {
			_, got, lines, err := decodeStream(bytes.NewReader(wire), bufSize, batchRows)
			if err != nil || !reflect.DeepEqual(got, want) || !bytes.Equal(lines, wantLines) {
				t.Fatalf("batch %d, buffer %d: rows %q lines %q err %v, want %q", batchRows, bufSize, got, lines, err, want)
			}
		}
	}

	for cut := 0; cut < len(wire); cut++ {
		_, got, _, err := decodeStream(bytes.NewReader(wire[:cut]), 64, 2)
		if lakeerr.CodeOf(err) != lakeerr.CodeUnavailable || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut at %d: err = %v, want a typed truncation", cut, err)
		}
		if len(got) > len(want) || len(got) > 0 && !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("cut at %d: rows %q are not a prefix of %q", cut, got, want)
		}
	}

	for _, p := range payloads {
		for i := p[0]; i < p[1]; i++ {
			bad := append([]byte(nil), wire...)
			bad[i] ^= 0x20
			_, _, _, err := decodeStream(bytes.NewReader(bad), 64, 2)
			if lakeerr.CodeOf(err) != lakeerr.CodeInternal || !strings.Contains(err.Error(), "remote east: bad batch frame: checksum") {
				t.Fatalf("flipped byte %d: err = %v, want a typed checksum error", i, err)
			}
		}
	}
}

// TestFrameDecodeAllocationsPerBatchConstant: a frame costs the same
// few allocations whether it holds 16 rows or a full batch.
func TestFrameDecodeAllocationsPerBatchConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 50
	per := map[int]float64{}
	for _, n := range []int{16, query.DefaultBatchRows} {
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = []string{fmt.Sprintf("city%d", i), fmt.Sprint(i % 97)}
		}
		wire := []byte(`{"columns":["city","price"]}` + "\n")
		for k := 0; k <= runs; k++ {
			wire = append(wire, encodeFrame(rows, 2)...)
		}
		st := &stream{client: offline, br: bufio.NewReaderSize(bytes.NewReader(wire), readBufferSize)}
		ctx := context.Background()
		if err := st.readHeader(ctx); err != nil {
			t.Fatal(err)
		}
		per[n] = testing.AllocsPerRun(runs, func() {
			if b, err := st.NextBatch(ctx, query.DefaultBatchRows); err != nil || b.Len() != n {
				t.Fatalf("%d-row frame: batch %v, err %v", n, b, err)
			}
		})
	}
	t.Logf("allocations per frame by row count: %v", per)
	if per[16] != per[query.DefaultBatchRows] || per[16] > 5 {
		t.Errorf("allocations per frame = %v by row count, want one constant of at most 5", per)
	}
}

// TestFrameEncoderFillsFrames: batches a filter left part full are
// gathered into frames of a full batch, so the coordinator's batches
// are full too.
func TestFrameEncoderFillsFrames(t *testing.T) {
	rows := make([][]string, 300)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i)}
	}
	enc := query.NewFrameEncoder(1)
	var wire []byte
	for k := 0; k < 10; k++ {
		wire = enc.AppendBatch(wire, batchOf(rows, 1))
	}
	wire = enc.AppendPending(wire)
	wire = append([]byte(`{"columns":["n"]}`+"\n"), wire...)
	wire = append(wire, `{"stats":{}}`+"\n"...)
	st := &stream{client: offline, br: bufio.NewReaderSize(bytes.NewReader(wire), readBufferSize)}
	ctx := context.Background()
	if err := st.readHeader(ctx); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		b, err := st.NextBatch(ctx, 4096)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, b.Len())
	}
	if want := []int{1024, 1024, 952}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("frame sizes = %v, want %v", sizes, want)
	}
}

// FuzzDecodeBatchFrame: cells and flags round-trip through a frame, and
// the row lines written from a decoded frame are the ones AppendRow
// writes; an arbitrary payload, checksummed so the parser sees it,
// either decodes or fails as a typed internal error.
func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add([]byte("ams\x0010\x00q\"uote\x00<&>"), uint8(2))
	f.Add([]byte("\x00\x00caf\xc3\xa9\x00line\xe2\x80\xa8sep"), uint8(1))
	f.Add([]byte("\x01\x00\x00\x00\x01\x00\x00\x00\x01a"), uint8(0))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, w uint8) {
		width := int(w%4) + 1
		cells := strings.Split(string(data), "\x00")
		for len(cells)%width != 0 {
			cells = append(cells, "")
		}
		rows := make([][]string, len(cells)/width)
		flags := make([][]byte, len(rows))
		var wantLines []byte
		for i := range rows {
			rows[i] = cells[i*width : (i+1)*width]
			flags[i] = make([]byte, width)
			for j, c := range rows[i] {
				// An honest member flags a plain cell or leaves it
				// unflagged; both are exercised.
				if string(ndjson.AppendString(nil, c)) == `"`+c+`"` && (i+j)%3 != 0 {
					flags[i][j] = 1
				}
			}
			wantLines = ndjson.AppendRow(wantLines, rows[i])
		}
		header := []byte(`{"columns":["a","b","c","d"]`[:12+4*width-1] + "]}\n")
		frame := refFrame(rows, flags, width)
		wire := append(append(append([]byte(nil), header...), frame...), `{"stats":{}}`+"\n"...)
		_, got, lines, err := decodeStream(bytes.NewReader(wire), readBufferSize, query.DefaultBatchRows)
		if err != nil || len(got) != len(rows) || len(rows) > 0 && !reflect.DeepEqual(got, rows) || !bytes.Equal(lines, wantLines) {
			t.Fatalf("round trip: rows %q lines %q err %v, want %q", got, lines, err, rows)
		}
		// A decoded frame re-encodes to the same bytes, flags included.
		if len(rows) > 0 && len(rows) <= query.DefaultBatchRows {
			st := &stream{client: offline, br: bufio.NewReaderSize(bytes.NewReader(wire), readBufferSize)}
			if err := st.readHeader(context.Background()); err != nil {
				t.Fatal(err)
			}
			b, err := st.NextBatch(context.Background(), query.DefaultBatchRows)
			if err != nil {
				t.Fatal(err)
			}
			enc := query.NewFrameEncoder(width)
			if again := enc.AppendPending(enc.AppendBatch(nil, b)); !bytes.Equal(again, frame) {
				t.Fatalf("re-encoded frame\n%q, want\n%q", again, frame)
			}
		}

		// The same bytes as a payload of a two-column stream.
		wire = append(append([]byte(`{"columns":["a","b"]}`+"\n"), refFrameOf(data)...), `{"stats":{}}`+"\n"...)
		if _, _, _, err := decodeStream(bytes.NewReader(wire), readBufferSize, query.DefaultBatchRows); err != nil &&
			(lakeerr.CodeOf(err) != lakeerr.CodeInternal || !strings.Contains(err.Error(), "bad batch frame")) {
			t.Fatalf("arbitrary payload: err = %v, want nil or a typed bad batch frame", err)
		}
	})
}

// TestFrameEncoderBoundsFrameBytes: rows of large cells close a frame
// near a mebibyte, not at a full batch, and a row too large for any
// frame crosses as an NDJSON row line between the frames around it.
func TestFrameEncoderBoundsFrameBytes(t *testing.T) {
	big := strings.Repeat("c", 100<<10)
	rows := make([][]string, 25)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i), big}
	}
	huge := [][]string{{"huge", strings.Repeat("h", query.MaxFramePayload)}}
	enc := query.NewFrameEncoder(2)
	wire := []byte(`{"columns":["n","c"]}` + "\n")
	wire = enc.AppendBatch(wire, batchOf(rows, 2))
	wire = enc.AppendBatch(wire, batchOf(huge, 2))
	wire = enc.AppendBatch(wire, batchOf(rows[:1], 2))
	wire = enc.AppendPending(wire)
	wire = append(wire, `{"stats":{}}`+"\n"...)

	// Walk the wire: every frame's payload stays near the flush size.
	var kinds []string
	for rest := bytes.SplitAfterN(wire, []byte("\n"), 2)[1]; len(rest) > 0; {
		if rest[0] == query.FrameMarker {
			n := int(binary.LittleEndian.Uint32(rest[1:5]))
			if n > 1<<20+len(big)+16 {
				t.Fatalf("frame of %d payload bytes", n)
			}
			kinds = append(kinds, "frame")
			rest = rest[query.FrameHeaderLen+n:]
			continue
		}
		line, after, _ := bytes.Cut(rest, []byte("\n"))
		kinds = append(kinds, string(line[:2]))
		rest = after
	}
	if want := []string{"frame", "frame", "frame", `["`, "frame", `{"`}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("wire items = %q, want %q", kinds, want)
	}
	_, got, _, err := decodeStream(bytes.NewReader(wire), readBufferSize, query.DefaultBatchRows)
	want := append(append(append([][]string(nil), rows...), huge...), rows[0])
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d rows, err %v; want the %d rows encoded", len(got), err, len(want))
	}
}
