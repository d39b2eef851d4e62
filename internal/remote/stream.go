package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"golake/internal/ndjson"
	"golake/internal/query"
	"golake/lakeerr"
)

// readBufferSize is the line reader's buffer: a few hundred row lines
// per refill. A line longer than this is assembled in a side buffer.
const readBufferSize = 32 << 10

// stream decodes one member lake's response to POST /v1/query. The
// framing contract (objects are metadata, every line ends in a
// newline):
//
//	{"columns":["city","price"]}   header — read eagerly at open
//	<batch frame>                  rows, column-major (query.FrameEncoder)
//	["ams","10"]                   one row per line
//	{"stats":{...}}                clean-end trailer → io.EOF
//	{"error":{"code","message"}}   in-band failure → typed sticky error
//
// Between header and trailer each item is told apart by its first
// byte: query.FrameMarker opens a batch frame, '[' a row line. A
// member that understands the Accept header answers frames; an older
// member, or any other server of the NDJSON protocol, answers row
// lines, and the stream reads both. Running out of bytes before either
// trailer means the connection dropped mid-stream; that surfaces as a
// typed unavailable error, never a silent short result. A frame that
// fails its size caps, its checksum or its offsets is a typed internal
// error naming the member.
//
// The stream is batch-native: NextBatch hands out a frame's rows as
// vectors over one string holding the frame's payload, and scans row
// lines straight into column runs (ndjson.Cells), so the engine's
// remote leaf gets a *query.Batch without a row ever being
// materialized. Next is a cursor over the current batch for
// row-shaped consumers; a consumer uses one face or the other, not
// both.
type stream struct {
	client *Client
	resp   *http.Response
	cancel context.CancelFunc
	br     *bufio.Reader
	long   []byte // assembles a line longer than br's buffer
	cells  *ndjson.Cells
	frame  query.DecodedFrame
	cols   []string
	start  time.Time

	cur *query.Batch // the row face's current batch
	pos int

	rows int64
	err  error // sticky terminal error
	done bool  // clean end seen

	reportOnce sync.Once
	closeOnce  sync.Once
	closeErr   error
}

// frame is one decoded metadata object; exactly one field is set.
type frame struct {
	Columns []string        `json:"columns"`
	Stats   json.RawMessage `json:"stats"`
	Error   *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// readLine returns the next line, newline included, valid until the
// next call. A line the stream ends in the middle of is a truncation,
// not a line.
func (s *stream) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if err != nil {
		return nil, err
	}
	return line, nil
}

// readFrame decodes a metadata line.
func (s *stream) readFrame(line []byte, what string) (frame, error) {
	var f frame
	if err := json.Unmarshal(line, &f); err != nil {
		return f, lakeerr.Errorf(lakeerr.CodeInternal, "remote %s: bad %s frame: %v", s.client.member, what, err)
	}
	if f.Error != nil {
		return f, lakeerr.Errorf(knownCode(f.Error.Code), "remote %s: %s", s.client.member, f.Error.Message)
	}
	return f, nil
}

// readHeader consumes the header line so Columns answers before the
// first Next — the union stage needs every source's header up front. A
// member that fails before the body starts answers a non-200 handled by
// OpenStream; a failure after the body started arrives as an in-band
// error object, which may legally be the very first line.
func (s *stream) readHeader(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		s.err = s.client.classify(err)
		return s.err
	}
	line, err := s.readLine()
	if err != nil {
		s.err = s.client.truncatedErr(err)
		return s.err
	}
	f, err := s.readFrame(line, "header")
	if err == nil && f.Columns == nil {
		err = lakeerr.Errorf(lakeerr.CodeInternal, "remote %s: stream did not start with a columns header", s.client.member)
	}
	if err != nil {
		s.err = err
		return s.err
	}
	s.cols = f.Columns
	s.cells = ndjson.NewCells(len(s.cols))
	return nil
}

// Columns implements query.RowIterator.
func (s *stream) Columns() []string { return s.cols }

// terminal returns the stream's terminal state, nil while it is live.
// The request's telemetry is reported when the consumer is told, not
// when the decoder reads the trailer a batch ahead of it.
func (s *stream) terminal() error {
	switch {
	case s.err != nil:
		s.report(string(lakeerr.CodeOf(s.err)))
		return s.err
	case s.done:
		s.report("ok")
		return io.EOF
	}
	return nil
}

// NextBatch implements query.BatchScanner: it hands out up to rows
// rows of the current frame, or decodes up to rows row lines into one
// batch. A frame, a trailer or a failure met with row lines already
// decoded ends the batch there and is delivered by the next call.
// Errors are sticky; a clean end is terminal.
func (s *stream) NextBatch(ctx context.Context, rows int) (*query.Batch, error) {
	if s.frame.Left() == 0 {
		if err := s.terminal(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		// Transient (the stream may be resumed with a live context), so
		// not sticky — mirroring the local iterators' contract.
		return nil, err
	}
	s.cells.Reset()
	for s.cells.Rows() < rows && s.frame.Left() == 0 && s.err == nil && !s.done {
		if next, err := s.br.Peek(1); err == nil && next[0] == query.FrameMarker {
			if s.cells.Rows() > 0 {
				break
			}
			s.err = s.readBatchFrame()
			continue
		}
		line, err := s.readLine()
		switch {
		case err != nil:
			s.err = s.client.truncatedErr(err)
		case line[0] == '[':
			if err := s.cells.DecodeRow(line); err != nil {
				s.err = lakeerr.Errorf(lakeerr.CodeInternal, "remote %s: bad row frame (want %d string cells): %.80q", s.client.member, len(s.cols), line)
			}
		default:
			f, err := s.readFrame(line, "metadata")
			switch {
			case err != nil:
				s.err = err
			case f.Stats != nil:
				s.done = true
			default:
				s.err = lakeerr.Errorf(lakeerr.CodeInternal, "remote %s: unexpected metadata frame %.80q", s.client.member, line)
			}
		}
	}
	var b *query.Batch
	if n := s.cells.Rows(); n > 0 {
		runs := s.cells.Columns()
		vecs := make([]*query.Vector, len(runs))
		for j, run := range runs {
			vecs[j] = query.NewVector(run)
		}
		b = query.NewBatch(vecs)
	} else if s.frame.Left() > 0 {
		b = s.frame.NextBatch(rows)
	} else {
		return nil, s.terminal()
	}
	s.rows += int64(b.Len())
	return b, nil
}

// readBatchFrame reads the batch frame at the reader into s.frame. A
// frame cut short is a truncation; one that breaks a bound, fails its
// checksum or does not parse is a typed internal error.
func (s *stream) readBatchFrame() error {
	err := s.frame.Read(s.br, len(s.cols))
	switch {
	case err == nil:
		return nil
	case errors.Is(err, query.ErrFrame):
		return lakeerr.Errorf(lakeerr.CodeInternal, "remote %s: %v", s.client.member, err)
	}
	return s.client.truncatedErr(err)
}

// Next implements query.RowIterator, one row of the current batch per
// call.
func (s *stream) Next(ctx context.Context) (query.Row, error) {
	for s.cur == nil || s.pos == s.cur.Len() {
		b, err := s.NextBatch(ctx, query.DefaultBatchRows)
		if err != nil {
			return nil, err
		}
		s.cur, s.pos = b, 0
	}
	row := s.cur.Row(s.pos)
	s.pos++
	return row, nil
}

// report emits the request telemetry exactly once per stream.
func (s *stream) report(outcome string) {
	s.reportOnce.Do(func() {
		label := lakeerr.Code(outcome)
		if outcome == "ok" {
			label = ""
		}
		s.client.finish(label, s.rows, s.start)
	})
}

// Close implements query.RowIterator: it cancels the request context
// (aborting the member's handler mid-stream), drains a little so the
// connection can be reused on clean ends, and closes the body.
// Idempotent; an early Close reports the "aborted" outcome.
func (s *stream) Close() error {
	s.closeOnce.Do(func() {
		s.report("aborted")
		if s.done {
			// Clean end: the trailer is read but the body's chunk
			// terminator may not be; the transport only reuses the
			// connection once the body has reported EOF.
			_, _ = io.Copy(io.Discard, io.LimitReader(s.resp.Body, 1<<12))
		}
		s.cancel()
		s.closeErr = s.resp.Body.Close()
	})
	return s.closeErr
}
