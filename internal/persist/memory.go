package persist

import (
	"fmt"
	"sort"
	"sync"
)

// Memory is an in-process Backend for tests and benchmarks: the
// snapshot, WAL and segments live in byte slices. Close keeps the
// contents readable, so one Memory instance can back successive lake
// generations — the crash-recovery tests hand the same instance to a
// second Open and assert the replayed lake matches.
type Memory struct {
	mu       sync.Mutex
	snapshot []byte
	wal      []byte
	segments map[string][]byte
}

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory { return &Memory{} }

// Name implements Backend.
func (m *Memory) Name() string { return "memory" }

// ReadSnapshot implements Backend.
func (m *Memory) ReadSnapshot() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snapshot == nil {
		return nil, nil
	}
	return append([]byte(nil), m.snapshot...), nil
}

// ReadWAL implements Backend.
func (m *Memory) ReadWAL() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wal == nil {
		return nil, nil
	}
	return append([]byte(nil), m.wal...), nil
}

// AppendWAL implements Backend.
func (m *Memory) AppendWAL(frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wal = append(m.wal, frame...)
	return nil
}

// Checkpoint implements Backend.
func (m *Memory) Checkpoint(snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snapshot = append([]byte(nil), snapshot...)
	m.wal = nil
	return nil
}

// WALSize implements Backend.
func (m *Memory) WALSize() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(len(m.wal)), nil
}

// SnapshotSize implements Backend.
func (m *Memory) SnapshotSize() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := int64(len(m.snapshot))
	for _, seg := range m.segments {
		n += int64(len(seg))
	}
	return n, nil
}

// PutSegment implements Backend.
func (m *Memory) PutSegment(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.segments == nil {
		m.segments = map[string][]byte{}
	}
	m.segments[name] = append([]byte(nil), data...)
	return nil
}

// ReadSegment implements Backend.
func (m *Memory) ReadSegment(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seg, ok := m.segments[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSegment, name)
	}
	return append([]byte(nil), seg...), nil
}

// DeleteSegment implements Backend.
func (m *Memory) DeleteSegment(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.segments, name)
	return nil
}

// ListSegments implements Backend.
func (m *Memory) ListSegments() ([]SegmentInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SegmentInfo, 0, len(m.segments))
	for name, seg := range m.segments {
		out = append(out, SegmentInfo{Name: name, Size: int64(len(seg))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Close implements Backend; contents stay readable for a reopen.
func (m *Memory) Close() error { return nil }
