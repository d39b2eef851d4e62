// Package filestore is the lake's raw-file storage tier, stand-in for
// the HDFS/Azure-Data-Lake-Store file systems the surveyed lakes use
// (Sec. 4.1). Objects are immutable byte blobs addressed by a
// slash-separated logical path; the store records size and a detected
// format for every object, which the ingestion tier reads instead of
// re-sniffing files. The store itself writes nothing to disk: each
// object is read back through the ReadFunc it was put with — on a
// durable lake, from the segment that already holds its bytes — or,
// without one, from a copy the store keeps in memory.
package filestore

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// Format is a coarse file-format label produced by detection.
type Format string

// Formats recognized by the registry. Unknown content maps to
// FormatBinary or FormatText depending on whether it looks like UTF-8
// text.
const (
	FormatCSV    Format = "csv"
	FormatJSON   Format = "json"
	FormatJSONL  Format = "jsonl"
	FormatXML    Format = "xml"
	FormatLog    Format = "log"
	FormatText   Format = "text"
	FormatBinary Format = "binary"
)

// ErrNotFound is returned for missing objects.
var ErrNotFound = errors.New("filestore: object not found")

// ErrInvalidPath is returned for a path CleanPath refuses.
var ErrInvalidPath = errors.New("filestore: invalid path")

// PersistDir is the reserved subdirectory name where a lake keeps its
// durability files; no object path may lie under it.
const PersistDir = ".golake"

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	Path   string
	Size   int64
	Format Format
	Stored time.Time
}

// ReadFunc reads an object's bytes back from wherever they are kept.
type ReadFunc func() ([]byte, error)

type object struct {
	info ObjectInfo
	read ReadFunc
}

// Store is a concurrency-safe object store.
type Store struct {
	mu   sync.RWMutex
	objs map[string]object
}

// New returns an empty store.
func New() *Store { return &Store{objs: map[string]object{}} }

// Put records data under the logical path, overwriting any previous
// object, and returns its info. Get reads the bytes back through read;
// with a nil read the store keeps a copy of data itself.
func (s *Store) Put(path string, data []byte, read ReadFunc) (ObjectInfo, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return ObjectInfo{}, err
	}
	if read == nil {
		kept := bytes.Clone(data)
		read = func() ([]byte, error) { return bytes.Clone(kept), nil }
	}
	info := ObjectInfo{
		Path:   clean,
		Size:   int64(len(data)),
		Format: Detect(clean, data),
		Stored: time.Now(),
	}
	s.mu.Lock()
	s.objs[clean] = object{info: info, read: read}
	s.mu.Unlock()
	return info, nil
}

// Get returns the object bytes.
func (s *Store) Get(path string) ([]byte, error) {
	clean, err := CleanPath(path)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	obj, ok := s.objs[clean]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	data, err := obj.read()
	if err != nil {
		return nil, fmt.Errorf("filestore: get %s: %w", path, err)
	}
	return data, nil
}

// Delete removes an object; deleting a missing object returns
// ErrNotFound.
func (s *Store) Delete(path string) error {
	clean, err := CleanPath(path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[clean]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(s.objs, clean)
	return nil
}

// List returns the infos of all objects whose path has the given prefix,
// sorted by path.
func (s *Store) List(prefix string) []ObjectInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectInfo
	for p, obj := range s.objs {
		if strings.HasPrefix(p, prefix) {
			out = append(out, obj.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objs)
}

// CleanPath returns the canonical form of a logical object path, or
// ErrInvalidPath for a path with a ".." element, an empty path, or one
// under PersistDir. A ".." inside an element, as in "q1..q2.csv", is
// just part of a name.
func CleanPath(p string) (string, error) {
	for _, elem := range strings.Split(p, "/") {
		if elem == ".." {
			return "", fmt.Errorf("%w %q: it has a \"..\" element", ErrInvalidPath, p)
		}
	}
	clean := path.Clean("/" + p)[1:]
	if clean == "" {
		return "", fmt.Errorf("%w %q: it is empty", ErrInvalidPath, p)
	}
	if clean == PersistDir || strings.HasPrefix(clean, PersistDir+"/") {
		return "", fmt.Errorf("%w %q: it is reserved for lake persistence", ErrInvalidPath, p)
	}
	return clean, nil
}
