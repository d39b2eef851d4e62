package query

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
)

// A batch frame carries rows column-major on the federated hop, in
// place of their NDJSON row lines. On the wire it is the WAL's record
// frame (persist.EncodeFrame) behind a marker byte that no JSON line
// starts with, so a reader tells a frame from a header, row or trailer
// line by its first byte:
//
//	FrameMarker | uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// The payload is a uint32 row count, then for each column of the
// stream's header: one uint32 end offset per cell into the column's
// cell bytes, one plain flag per cell, and the cell bytes back to back.
// Integers are little-endian. A flag is 1 when the cell's JSON string
// literal is the cell between two quotes, so a reader serializing the
// cell again needs no escape pass, and 0 when it may not be. A member
// that flags a cell plain is trusted, as it is trusted for the cell.
const (
	FrameMarker    byte = 0xFF
	FrameHeaderLen      = 9
	// MaxFramePayload is the largest payload a reader accepts. An
	// encoder closes a frame at frameFlushBytes, so only a single row
	// comes near it, and a row that alone would pass it travels as an
	// NDJSON row line instead.
	MaxFramePayload = 64 << 20
	// MaxFrameRows is the most rows a reader accepts in one frame: the
	// largest batch a server runs. An encoder closes its frames at
	// DefaultBatchRows.
	MaxFrameRows = 1 << 16

	frameFlushBytes = 1 << 20
	// frameCellBytes is a cell's payload cost beyond its bytes: its end
	// offset and its flag.
	frameCellBytes = 5
)

// ErrFrame is wrapped by DecodedFrame.Read's errors for a frame that
// breaks a bound, fails its checksum or is not a well-formed frame of
// the stream's width.
var ErrFrame = errors.New("bad batch frame")

// FrameEncoder gathers rows into frames of DefaultBatchRows rows, so a
// member whose filter leaves its batches half full still sends full
// frames. Its buffers are reused from frame to frame.
type FrameEncoder struct {
	cols []frameColumn
	rows int
	size int // payload bytes of the pending rows, the row count included
}

type frameColumn struct {
	ends  []byte // encoded end offsets
	plain []byte
	data  []byte
}

// NewFrameEncoder returns an encoder for batches of width columns.
func NewFrameEncoder(width int) *FrameEncoder {
	return &FrameEncoder{cols: make([]frameColumn, width), size: 4}
}

// AppendBatch adds b's rows to the pending frame and appends to dst
// every frame that fills up on the way. Rows are copied a column at a
// time, in runs halved until they fit under frameFlushBytes; a row too
// large for any frame is appended as an NDJSON row line, after the
// frame before it.
func (e *FrameEncoder) AppendBatch(dst []byte, b *Batch) []byte {
	for lo := 0; lo < b.Len(); {
		hi := min(b.Len(), lo+DefaultBatchRows-e.rows)
		size := b.frameBytes(lo, hi)
		for hi-lo > 1 && e.size+size > frameFlushBytes {
			hi = lo + (hi-lo)/2
			size = b.frameBytes(lo, hi)
		}
		if e.size+size > MaxFramePayload {
			dst = e.AppendPending(dst)
			if e.size+size > MaxFramePayload {
				dst = b.AppendRowJSON(dst, lo)
				lo++
				continue
			}
		}
		for j, v := range b.vecs {
			e.cols[j].append(v, b, lo, hi)
		}
		e.rows += hi - lo
		e.size += size
		lo = hi
		if e.rows == DefaultBatchRows || e.size >= frameFlushBytes {
			dst = e.AppendPending(dst)
		}
	}
	return dst
}

// frameBytes is the payload cost of b's logical rows lo..hi.
func (b *Batch) frameBytes(lo, hi int) int {
	size := frameCellBytes * (hi - lo) * len(b.vecs)
	for _, v := range b.vecs {
		if v.cells != nil {
			for i := lo; i < hi; i++ {
				size += len(v.cells[b.rowIndex(i)])
			}
		}
	}
	return size
}

// append copies the vector's cells at b's logical rows lo..hi into the
// column, with their end offsets and flags. A cell is flagged plain
// when the vector knows it is without reading it: its stored literal
// is two bytes longer than the cell, or a frame flagged it so.
func (c *frameColumn) append(v *Vector, b *Batch, lo, hi int) {
	v.wire()
	data, ends, plain := c.data, c.ends, c.plain
	for i := lo; i < hi; i++ {
		p := b.rowIndex(i)
		cell := v.Cell(p)
		data = append(data, cell...)
		ends = binary.LittleEndian.AppendUint32(ends, uint32(len(data)))
		flag := byte(0)
		switch {
		case v.ends != nil:
			if k := v.off + p; int(v.ends[k+1]-v.ends[k]) == len(cell)+2 {
				flag = 1
			}
		case v.plain != "":
			flag = v.plain[p]
		}
		plain = append(plain, flag)
	}
	c.data, c.ends, c.plain = data, ends, plain
}

// AppendPending appends the pending rows to dst as one frame, if there
// are any, and starts the next frame.
func (e *FrameEncoder) AppendPending(dst []byte) []byte {
	if e.rows == 0 {
		return dst
	}
	start := len(dst)
	dst = append(dst, FrameMarker, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.rows))
	for j := range e.cols {
		c := &e.cols[j]
		dst = append(dst, c.ends...)
		dst = append(dst, c.plain...)
		dst = append(dst, c.data...)
		c.ends, c.plain, c.data = c.ends[:0], c.plain[:0], c.data[:0]
	}
	payload := dst[start+FrameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+5:], crc32.ChecksumIEEE(payload))
	e.rows, e.size = 0, 4
	return dst
}

// DecodedFrame holds one decoded frame and hands its rows out as
// batches. Cells and flags are substrings of the payload, so a frame
// costs a constant number of allocations whatever its row count.
type DecodedFrame struct {
	cols  [][]string
	plain []string
	rows  int
	pos   int
}

// Read reads the frame at r for a stream of width columns and replaces
// the frame held. The length prefix is checked against MaxFramePayload
// before anything is allocated for it, and the payload is copied once,
// from r's buffer into the string every cell of the frame is cut from,
// its checksum computed on the way. A frame that breaks a bound, fails
// its checksum or does not parse is an error wrapping ErrFrame; bytes
// ending before the frame does return r's error as it is, io.EOF
// included.
func (f *DecodedFrame) Read(r *bufio.Reader, width int) error {
	f.cols, f.plain, f.rows, f.pos = f.cols[:0], f.plain[:0], 0, 0
	hdr, err := r.Peek(FrameHeaderLen)
	if err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:5]))
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	switch {
	case hdr[0] != FrameMarker:
		return fmt.Errorf("%w: starts with %#x, not the frame marker", ErrFrame, hdr[0])
	case n > MaxFramePayload:
		return fmt.Errorf("%w: %d-byte payload, over the %d-byte ceiling", ErrFrame, n, MaxFramePayload)
	}
	_, _ = r.Discard(FrameHeaderLen) // peeked above
	var payload strings.Builder
	payload.Grow(n)
	crc := uint32(0)
	for payload.Len() < n {
		chunk, err := r.Peek(min(n-payload.Len(), r.Size()))
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		payload.Write(chunk)
		_, _ = r.Discard(len(chunk)) // peeked above
		if err != nil && payload.Len() < n {
			return err
		}
	}
	if crc != sum {
		return fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	return f.decode(payload.String(), width)
}

// decode parses payload, one frame's payload, checking every count and
// offset against the payload before using it.
func (f *DecodedFrame) decode(payload string, width int) error {
	if len(payload) < 4 {
		return fmt.Errorf("%w: %d-byte payload has no row count", ErrFrame, len(payload))
	}
	rows := int(uint32At(payload, 0))
	if rows > MaxFrameRows {
		return fmt.Errorf("%w: %d rows, over the %d-row limit", ErrFrame, rows, MaxFrameRows)
	}
	if rows*width*frameCellBytes > len(payload)-4 {
		return fmt.Errorf("%w: %d rows of %d cells do not fit %d bytes", ErrFrame, rows, width, len(payload))
	}
	flat := make([]string, rows*width)
	off := 4
	for j := 0; j < width; j++ {
		if off+frameCellBytes*rows > len(payload) {
			return fmt.Errorf("%w: column %d's offsets and flags run past %d bytes", ErrFrame, j, len(payload))
		}
		ends := off
		flags := payload[off+4*rows : off+5*rows]
		off += frameCellBytes * rows
		run := flat[j*rows : (j+1)*rows : (j+1)*rows]
		start := 0
		for i := range run {
			end := int(uint32At(payload, ends+4*i))
			if end < start || end > len(payload)-off {
				return fmt.Errorf("%w: column %d cell %d ends at %d, outside %d..%d", ErrFrame, j, i, end, start, len(payload)-off)
			}
			if flags[i] > 1 {
				return fmt.Errorf("%w: column %d cell %d has flag %d", ErrFrame, j, i, flags[i])
			}
			run[i] = payload[off+start : off+end]
			start = end
		}
		off += start
		f.cols = append(f.cols, run)
		f.plain = append(f.plain, flags)
	}
	if off != len(payload) {
		return fmt.Errorf("%w: %d bytes after the last column", ErrFrame, len(payload)-off)
	}
	f.rows = rows
	return nil
}

func uint32At(s string, i int) uint32 {
	return uint32(s[i]) | uint32(s[i+1])<<8 | uint32(s[i+2])<<16 | uint32(s[i+3])<<24
}

// Left reports how many of the frame's rows are still to be handed out.
func (f *DecodedFrame) Left() int { return f.rows - f.pos }

// NextBatch hands out the frame's next rows, at most rows of them, as
// a batch whose vectors carry the frame's flags.
func (f *DecodedFrame) NextBatch(rows int) *Batch {
	lo := f.pos
	hi := min(lo+rows, f.rows)
	f.pos = hi
	vs := make([]Vector, len(f.cols))
	vecs := make([]*Vector, len(f.cols))
	for j, run := range f.cols {
		vs[j] = Vector{cells: run[lo:hi:hi], n: hi - lo, plain: f.plain[j][lo:hi]}
		vecs[j] = &vs[j]
	}
	return &Batch{vecs: vecs, n: hi - lo}
}
