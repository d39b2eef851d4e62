package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, taken from outside it. The traced
// run replays an op at successively deeper entry points — the TCP round
// trip, the HTTP handler in-process, Lake.Query, Engine.Query, the store
// scan — so the spans of one op share OpID and each names the next
// shallower one as Parent. A layer's self time is its span minus its
// child's.
type span struct {
	OpID   int       `json:"op_id"`
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Counts at this boundary: rows delivered, bytes written.
	Rows  int   `json:"rows,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn, records its span and returns its duration.
func (r *recorder) timed(opID int, name, parent string, fn func() (rows int, bytes int64, err error)) (time.Duration, error) {
	start := time.Now()
	rows, bytes, err := fn()
	end := time.Now()
	r.add(span{OpID: opID, Name: name, Parent: parent, Start: start, End: end, Rows: rows, Bytes: bytes})
	return end.Sub(start), err
}

// writeTo writes the spans as JSON lines.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
