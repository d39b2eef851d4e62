package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// Local is the directory-on-disk Backend: the WAL is one append-only
// file (wal.log), the snapshot a single blob replaced atomically via
// write-to-temp + rename, and each segment one immutable file under
// segments/. Point it at a directory of its own — by
// convention `<lakedir>/.golake`, a path no ingested object may take —
// and a hard-stopped process recovers everything up to the torn tail of
// its last append.
type Local struct {
	dir  string
	sync Sync

	mu      sync.Mutex
	wal     *os.File
	walSize int64
	closed  bool
}

// LocalOption configures a Local backend.
type LocalOption func(*Local)

// WithSync sets the fsync policy for WAL appends (default SyncNone).
func WithSync(s Sync) LocalOption {
	return func(l *Local) { l.sync = s }
}

const (
	walFile      = "wal.log"
	snapshotFile = "snapshot"
	segmentDir   = "segments"
)

// NewLocal opens (creating if needed) a local backend rooted at dir.
func NewLocal(dir string, opts ...LocalOption) (*Local, error) {
	if err := os.MkdirAll(filepath.Join(dir, segmentDir), 0o755); err != nil {
		return nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	l := &Local{dir: dir}
	for _, opt := range opts {
		opt(l)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: stat wal: %w", err)
	}
	l.wal = f
	l.walSize = st.Size()
	return l, nil
}

// Name implements Backend.
func (l *Local) Name() string { return "local" }

// ReadSnapshot implements Backend.
func (l *Local) ReadSnapshot() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}
	return data, nil
}

// ReadWAL implements Backend.
func (l *Local) ReadWAL() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, walFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: read wal: %w", err)
	}
	return data, nil
}

// AppendWAL implements Backend.
func (l *Local) AppendWAL(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if _, err := l.wal.Write(frame); err != nil {
		return fmt.Errorf("persist: append wal: %w", err)
	}
	l.walSize += int64(len(frame))
	if l.sync == SyncAlways {
		if err := l.wal.Sync(); err != nil {
			return fmt.Errorf("persist: sync wal: %w", err)
		}
	}
	return nil
}

// Checkpoint implements Backend: the new snapshot is written to a temp
// file, fsynced, renamed over the old one (atomic on POSIX), the
// directory entry synced, and only then is the WAL truncated. A crash
// between rename and truncate leaves WAL records already contained in
// the snapshot; replay treats the resulting conflicts as idempotent
// duplicates, so the order errs on the durable side.
func (l *Local) Checkpoint(snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmp := filepath.Join(l.dir, snapshotFile+".tmp")
	final := filepath.Join(l.dir, snapshotFile)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	if _, err := f.Write(snapshot); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("persist: checkpoint rename: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("persist: checkpoint sync dir: %w", err)
	}
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("persist: truncate wal: %w", err)
	}
	l.walSize = 0
	if l.sync == SyncAlways {
		if err := l.wal.Sync(); err != nil {
			return fmt.Errorf("persist: sync wal: %w", err)
		}
	}
	return nil
}

// WALSize implements Backend.
func (l *Local) WALSize() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walSize, nil
}

// SnapshotSize implements Backend.
func (l *Local) SnapshotSize() (int64, error) {
	var n int64
	st, err := os.Stat(filepath.Join(l.dir, snapshotFile))
	switch {
	case err == nil:
		n = st.Size()
	case !os.IsNotExist(err):
		return 0, fmt.Errorf("persist: stat snapshot: %w", err)
	}
	segs, err := l.ListSegments()
	if err != nil {
		return 0, err
	}
	for _, s := range segs {
		n += s.Size
	}
	return n, nil
}

// segmentPath resolves a segment name to its file. Names arrive from
// the manifest and the WAL, so anything that could leave segments/ is
// refused.
func (l *Local) segmentPath(name string) (string, error) {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return "", fmt.Errorf("persist: invalid segment name %q", name)
	}
	return filepath.Join(l.dir, segmentDir, name), nil
}

// PutSegment implements Backend: the file is created under its final
// name (never an existing one) and, under SyncAlways, fsynced together
// with its directory. A crash mid-put leaves a file no record names yet;
// the lake deletes such orphans when it next opens. The put runs
// outside l.mu, so it overlaps WAL appends.
func (l *Local) PutSegment(name string, data []byte) error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	path, err := l.segmentPath(name)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: put segment: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: put segment %s: %w", name, err)
	}
	if l.sync == SyncAlways {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("persist: sync segment %s: %w", name, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close segment %s: %w", name, err)
	}
	if l.sync == SyncAlways {
		if err := syncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("persist: sync segment dir %s: %w", name, err)
		}
	}
	return nil
}

// ReadSegment implements Backend.
func (l *Local) ReadSegment(name string) ([]byte, error) {
	path, err := l.segmentPath(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNoSegment, name)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: read segment: %w", err)
	}
	return data, nil
}

// DeleteSegment implements Backend.
func (l *Local) DeleteSegment(name string) error {
	path, err := l.segmentPath(name)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: delete segment: %w", err)
	}
	return nil
}

// ListSegments implements Backend.
func (l *Local) ListSegments() ([]SegmentInfo, error) {
	entries, err := os.ReadDir(filepath.Join(l.dir, segmentDir))
	if err != nil {
		return nil, fmt.Errorf("persist: list segments: %w", err)
	}
	out := make([]SegmentInfo, 0, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if os.IsNotExist(err) {
			continue // deleted since the directory was read
		}
		if err != nil {
			return nil, fmt.Errorf("persist: stat segment: %w", err)
		}
		out = append(out, SegmentInfo{Name: e.Name(), Size: info.Size()})
	}
	return out, nil
}

// Close implements Backend.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.wal.Close()
}

// syncDir fsyncs a directory so a checkpoint's rename, or a new
// segment's entry, is itself durable. A filesystem that does not
// support directory fsync (some network mounts) degrades to the OS's
// own flush; any other failure is returned, because the entry may not
// be on disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	_ = d.Close()
	if err != nil && !dirSyncUnsupported(err) {
		return err
	}
	return nil
}

// dirSyncUnsupported reports whether a directory fsync failed only
// because the filesystem does not support it (EINVAL, ENOTSUP).
func dirSyncUnsupported(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)
}
