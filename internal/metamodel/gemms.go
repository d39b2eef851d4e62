// Package metamodel implements the ingestion-tier metadata modeling
// function (Sec. 5.2 of the survey), one representative per method
// family: the GEMMS generic metamodel (content / structure / semantics
// separation) and the zones of the HANDLE generic model.
package metamodel

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"golake/internal/extract"
)

// ErrNoObject is returned for unknown metadata objects.
var ErrNoObject = errors.New("metamodel: no such metadata object")

// MetadataObject is the GEMMS unit of metadata for one dataset. It
// separates general properties (key-value), structural metadata (the
// inferred tree or tabular schema), and semantic metadata (ontology
// terms attached to named elements).
type MetadataObject struct {
	ID string
	// Properties holds general metadata such as file size or header
	// fields, as key-value pairs.
	Properties map[string]string
	// Structure is the structural metadata tree (nil for tabular data).
	Structure *extract.TreeNode
	// Attributes lists tabular attribute names with their types
	// (empty for hierarchical data).
	Attributes map[string]string
	// Semantics maps an element name ("" for the whole dataset) to
	// attached ontology terms.
	Semantics map[string][]string
}

// GEMMSModel stores metadata objects and answers property/semantic
// lookups; the "extensible metamodel" of the GEMMS system.
type GEMMSModel struct {
	mu      sync.RWMutex
	objects map[string]*MetadataObject
}

// NewGEMMS creates an empty model.
func NewGEMMS() *GEMMSModel {
	return &GEMMSModel{objects: map[string]*MetadataObject{}}
}

// Register stores the metadata object for a dataset, replacing any
// previous version.
func (m *GEMMSModel) Register(obj *MetadataObject) {
	if obj.Properties == nil {
		obj.Properties = map[string]string{}
	}
	if obj.Semantics == nil {
		obj.Semantics = map[string][]string{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objects[obj.ID] = obj
}

// Remove deletes a dataset's metadata object; unknown IDs are a no-op.
func (m *GEMMSModel) Remove(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.objects, id)
}

// FromExtraction converts an extraction result into a metadata object,
// the ingestion-time handoff between extractor and metamodel.
func FromExtraction(md *extract.Metadata) *MetadataObject {
	obj := &MetadataObject{
		ID:         md.Path,
		Properties: map[string]string{},
		Structure:  md.Tree,
		Attributes: map[string]string{},
		Semantics:  map[string][]string{},
	}
	for k, v := range md.Properties {
		obj.Properties[k] = v
	}
	for _, col := range md.Schema {
		obj.Attributes[col.Name] = col.Kind.String()
	}
	for _, tag := range md.SemanticTags {
		obj.Semantics[""] = append(obj.Semantics[""], tag)
	}
	return obj
}

// Object returns the metadata object for a dataset.
func (m *GEMMSModel) Object(id string) (*MetadataObject, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	obj, ok := m.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoObject, id)
	}
	return obj, nil
}

// IDs returns all registered dataset IDs, sorted.
func (m *GEMMSModel) IDs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.objects))
	for id := range m.objects {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Annotate attaches an ontology term to an element of a dataset
// ("" element = the whole dataset).
func (m *GEMMSModel) Annotate(id, element, term string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	obj, ok := m.objects[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoObject, id)
	}
	obj.Semantics[element] = append(obj.Semantics[element], term)
	return nil
}
