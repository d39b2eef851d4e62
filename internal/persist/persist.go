// Package persist is the lake's pluggable durability layer: a byte-level
// Backend contract (write-ahead log, a snapshot slot for the manifest,
// and immutable named segments) and the record framing the lake's
// logical WAL and its segments ride on. The split mirrors the two
// related systems this subsystem is modeled after — ranger keeps several
// catalog backends (sqlite/json/rest) behind one interface, icebox
// separates its catalog from interchangeable file stores
// (local/memory/minio) — so the two shipped backends (Memory for tests,
// Local for a directory on disk) can later be joined by sqlite or an
// object store without touching the replay logic in core.
//
// The package is deliberately ignorant of what the records mean: the
// lake stores each dataset's bytes once, framed by EncodeFrame, as a
// segment; serializes logical operations (ingest, derive, audit, evict,
// coverage) to JSON records that name those segments, frames them with
// a length + CRC32 header via EncodeFrame, and appends them through
// AppendWAL. A checkpoint installs a manifest that names the live
// segments. Recovery reads the manifest, then DecodeFrames over the WAL
// bytes — a torn or corrupt tail (a crash mid-append) is detected by
// the per-record checksum and dropped, never fatal.
package persist

import "errors"

// Sync selects the fsync discipline of a durable backend.
type Sync int

const (
	// SyncNone leaves flushing to the OS: an OS crash can lose the WAL
	// tail, but every completed append survives a process crash.
	SyncNone Sync = iota
	// SyncAlways fsyncs after every WAL append, and after every segment
	// put both the segment file and its directory — the full-durability
	// setting.
	SyncAlways
)

// ErrClosed is returned by operations on a closed backend.
var ErrClosed = errors.New("persist: backend closed")

// ErrNoSegment is returned (wrapped) by ReadSegment for a name no
// segment is stored under.
var ErrNoSegment = errors.New("persist: no such segment")

// SegmentInfo describes one stored segment.
type SegmentInfo struct {
	Name string
	Size int64
}

// Backend is one durable home for a lake's state: a single snapshot
// slot, an append-only write-ahead log, and a set of immutable named
// segments. Implementations must make Checkpoint atomic with respect to
// crashes — after a crash either the old snapshot or the new one is
// readable, never a torn mix — and AppendWAL and PutSegment durable to
// the degree their Sync policy promises.
//
// All methods must be safe for concurrent use; the lake serializes
// appends against checkpoints itself, but status probes (WALSize) race
// both, and segment puts run beside appends.
type Backend interface {
	// Name identifies the backend kind ("memory", "local") for status
	// surfaces.
	Name() string
	// ReadSnapshot returns the current snapshot bytes, or (nil, nil)
	// when no snapshot has been checkpointed yet.
	ReadSnapshot() ([]byte, error)
	// ReadWAL returns the full WAL contents, or (nil, nil) when empty.
	ReadWAL() ([]byte, error)
	// AppendWAL appends one framed record to the log.
	AppendWAL(frame []byte) error
	// Checkpoint atomically installs a new snapshot and truncates the
	// WAL: records appended before the call are subsumed by the
	// snapshot, the log restarts empty.
	Checkpoint(snapshot []byte) error
	// WALSize reports the current WAL length in bytes.
	WALSize() (int64, error)
	// SnapshotSize reports the bytes the snapshot and every stored
	// segment occupy (0 when there are neither).
	SnapshotSize() (int64, error)
	// PutSegment stores one immutable segment under name, durably before
	// it returns. The caller never reuses a name.
	PutSegment(name string, data []byte) error
	// ReadSegment returns a segment's bytes; a missing one is an error
	// wrapping ErrNoSegment.
	ReadSegment(name string) ([]byte, error)
	// DeleteSegment removes a segment; deleting a missing one is not an
	// error.
	DeleteSegment(name string) error
	// ListSegments returns every stored segment, sorted by name.
	ListSegments() ([]SegmentInfo, error)
	// Close releases resources. A closed backend rejects writes;
	// backends meant for reuse across lake generations (Memory in
	// tests) may keep their contents readable.
	Close() error
}
