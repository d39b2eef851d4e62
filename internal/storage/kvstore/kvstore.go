// Package kvstore is an ordered, in-process key-value store modeled on
// the LSM design of Bigtable, the substrate of Google's GOODS catalog
// (Sec. 4.2/6.1.1 of the survey): writes land in a sorted memtable,
// which flushes into immutable sorted segments; reads consult the
// memtable first, then segments newest-to-oldest; deletes write
// tombstones. Ordered prefix and range scans are the operations the
// catalog and provenance layers rely on.
package kvstore

import (
	"errors"
	"sort"
	"sync"
)

// ErrNotFound is returned by Get for missing or deleted keys.
var ErrNotFound = errors.New("kvstore: key not found")

// DefaultMemtableLimit is the number of entries after which a Put
// triggers an automatic flush into a segment.
const DefaultMemtableLimit = 4096

type entry struct {
	key       string
	value     []byte
	tombstone bool
}

// segment is an immutable sorted run of entries.
type segment struct {
	entries []entry // sorted by key, unique keys
}

func (s *segment) get(key string) (entry, bool) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].key >= key })
	if i < len(s.entries) && s.entries[i].key == key {
		return s.entries[i], true
	}
	return entry{}, false
}

// Store is a concurrency-safe ordered KV store.
type Store struct {
	mu            sync.RWMutex
	mem           map[string]entry
	segments      []*segment // oldest first
	memtableLimit int
}

// New creates a store with the default memtable limit.
func New() *Store { return NewWithLimit(DefaultMemtableLimit) }

// NewWithLimit creates a store that flushes the memtable after limit
// entries (limit <= 0 means DefaultMemtableLimit).
func NewWithLimit(limit int) *Store {
	if limit <= 0 {
		limit = DefaultMemtableLimit
	}
	return &Store{mem: map[string]entry{}, memtableLimit: limit}
}

// Put stores a key-value pair. The value slice is copied.
func (s *Store) Put(key string, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[key] = entry{key: key, value: v}
	if len(s.mem) >= s.memtableLimit {
		s.flushLocked()
	}
}

// Delete removes a key by writing a tombstone. Deleting a missing key
// is a no-op (matching Bigtable semantics).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[key] = entry{key: key, tombstone: true}
	if len(s.mem) >= s.memtableLimit {
		s.flushLocked()
	}
}

// Get returns the value for key or ErrNotFound.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.mem[key]; ok {
		if e.tombstone {
			return nil, ErrNotFound
		}
		return append([]byte(nil), e.value...), nil
	}
	for i := len(s.segments) - 1; i >= 0; i-- {
		if e, ok := s.segments[i].get(key); ok {
			if e.tombstone {
				return nil, ErrNotFound
			}
			return append([]byte(nil), e.value...), nil
		}
	}
	return nil, ErrNotFound
}

// Flush forces the memtable into a new immutable segment.
func (s *Store) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushLocked()
}

func (s *Store) flushLocked() {
	if len(s.mem) == 0 {
		return
	}
	entries := make([]entry, 0, len(s.mem))
	for _, e := range s.mem {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	s.segments = append(s.segments, &segment{entries: entries})
	s.mem = map[string]entry{}
}

// KV is one scan result.
type KV struct {
	Key   string
	Value []byte
}

// Scan returns all live entries with start <= key < end (end == ""
// means unbounded), in ascending key order.
func (s *Store) Scan(start, end string) []KV {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Merge memtable and segments; newest version wins.
	live := map[string]entry{}
	for _, seg := range s.segments {
		for _, e := range seg.entries {
			if inRange(e.key, start, end) {
				live[e.key] = e
			}
		}
	}
	for k, e := range s.mem {
		if inRange(k, start, end) {
			live[k] = e
		}
	}
	out := make([]KV, 0, len(live))
	for _, e := range live {
		if !e.tombstone {
			out = append(out, KV{Key: e.key, Value: append([]byte(nil), e.value...)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ScanPrefix returns all live entries whose key has the given prefix.
func (s *Store) ScanPrefix(prefix string) []KV {
	if prefix == "" {
		return s.Scan("", "")
	}
	return s.Scan(prefix, prefixEnd(prefix))
}

// Len returns the number of live keys (requires a scan).
func (s *Store) Len() int { return len(s.Scan("", "")) }

func inRange(key, start, end string) bool {
	if key < start {
		return false
	}
	if end != "" && key >= end {
		return false
	}
	return true
}

// prefixEnd returns the smallest string greater than every string with
// the given prefix.
func prefixEnd(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return "" // all 0xff: unbounded
}

// Keys returns all live keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	kvs := s.ScanPrefix(prefix)
	out := make([]string, len(kvs))
	for i, kv := range kvs {
		out[i] = kv.Key
	}
	return out
}
