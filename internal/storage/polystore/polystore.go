package polystore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"golake/internal/storage/docstore"
	"golake/internal/storage/filestore"
	"golake/internal/table"
)

// Target identifies one member store of the polystore.
type Target string

// The member stores.
const (
	TargetRelational Target = "relational"
	TargetDocument   Target = "document"
	TargetFile       Target = "file"
)

// Placement records where an ingested object landed.
type Placement struct {
	Path   string
	Format filestore.Format
	Target Target
	// TableName / Collection is set when the object was parsed into a
	// model store.
	TableName  string
	Collection string
}

// Name is the model-store name the object holds: its table's or its
// collection's, "" for a file-only object.
func (p Placement) Name() string { return p.TableName + p.Collection }

// Poly bundles the member stores and routes ingested objects. Every
// raw object is recorded in Files (the lake keeps originals); parsed
// forms go to the model store chosen by Route — Constance's strategy
// (Sec. 4.3).
type Poly struct {
	Files *filestore.Store
	Docs  *docstore.Store
	Rel   *RelStore

	mu         sync.RWMutex
	placements map[string]Placement
}

// New assembles an empty polystore. Its stores live in memory and it
// writes nothing to disk, so dir is unused and the error always nil;
// both are kept for existing callers.
func New(dir string) (*Poly, error) {
	return &Poly{
		Files:      filestore.New(),
		Docs:       docstore.New(),
		Rel:        NewRelStore(),
		placements: map[string]Placement{},
	}, nil
}

// Route picks the model store for a detected format: tabular data goes
// relational, JSON documents go to the document store, everything else
// stays file-only.
func Route(f filestore.Format) Target {
	switch f {
	case filestore.FormatCSV:
		return TargetRelational
	case filestore.FormatJSON, filestore.FormatJSONL:
		return TargetDocument
	default:
		return TargetFile
	}
}

// Ingest stores the raw object, keeping a copy of its bytes in memory,
// and routes its parsed form to the model store chosen by Route.
func (p *Poly) Ingest(path string, data []byte) (Placement, error) {
	st, err := Prepare(path, data, nil)
	if err != nil {
		return Placement{}, err
	}
	p.Publish(&st)
	return st.Placement, nil
}

// Staged is an object placed off to the side: its raw bytes described
// and its parsed form built, none of it visible in any store until
// Publish.
type Staged struct {
	Placement Placement
	// Table is the parsed relational form, nil for any other placement.
	// Once published it is the store's own, as View lends it: the
	// caller must not modify it or keep it.
	Table *table.Table
	obj   filestore.Object
	docs  *docstore.Collection
}

// Prepare describes and parses an object for Publish, touching no
// store. Files will read the raw bytes back through read (a nil read
// keeps a copy in memory). The parsed table comes back in Staged.Table
// so that describing the object next needs no second parse.
func Prepare(path string, data []byte, read filestore.ReadFunc) (Staged, error) {
	obj, err := filestore.NewObject(path, data, read)
	if err != nil {
		return Staged{}, err
	}
	st := Staged{Placement: Placement{Path: path, Format: obj.Info.Format, Target: TargetFile}, obj: obj}
	switch Route(obj.Info.Format) {
	case TargetRelational:
		t, err := table.ReadCSV(tableName(path), data)
		if err != nil {
			// Unparseable: degrade to file-only, the lake keeps the raw
			// bytes regardless.
			break
		}
		t.Meta["source"] = path
		st.Placement.Target = TargetRelational
		st.Placement.TableName = t.Name
		st.Table = t
	case TargetDocument:
		c, err := docstore.Decode(tableName(path), data, obj.Info.Format == filestore.FormatJSONL)
		if err != nil {
			// Not JSON objects: file-only, as an unparseable CSV is.
			break
		}
		st.Placement.Target = TargetDocument
		st.Placement.Collection = tableName(path)
		st.docs = c
	}
	return st, nil
}

// Publish makes a prepared object visible: its raw bytes in Files, its
// parsed form in its model store, and its placement.
func (p *Poly) Publish(st *Staged) {
	p.Files.Add(st.obj)
	switch {
	case st.Table != nil:
		p.Rel.Create(st.Table)
	case st.docs != nil:
		p.Docs.Add(st.docs)
	}
	p.mu.Lock()
	p.placements[st.Placement.Path] = st.Placement
	p.mu.Unlock()
}

// Remove deletes an ingested object everywhere it landed: the raw
// bytes, any parsed model-store form, and the placement record.
// Removing an unknown path returns filestore.ErrNotFound.
func (p *Poly) Remove(path string) error {
	p.mu.Lock()
	pl, ok := p.placements[path]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("%w: %s", filestore.ErrNotFound, path)
	}
	delete(p.placements, path)
	p.mu.Unlock()
	switch pl.Target {
	case TargetRelational:
		_ = p.Rel.Drop(pl.TableName)
	case TargetDocument:
		_ = p.Docs.Drop(pl.Collection)
	}
	return p.Files.Delete(path)
}

// PlacementOf returns the placement recorded for a path.
func (p *Poly) PlacementOf(path string) (Placement, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	pl, ok := p.placements[path]
	return pl, ok
}

// Placements returns all placements sorted by path.
func (p *Poly) Placements() []Placement {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Placement, 0, len(p.placements))
	for _, pl := range p.placements {
		out = append(out, pl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// DerivedName is the model-store name an ingested path will take:
// "raw/orders.csv" -> "orders". Exposed so callers can detect name
// collisions between distinct paths before ingesting.
func DerivedName(path string) string { return tableName(path) }

// tableName derives a model-store name from an object path:
// "raw/orders.csv" -> "orders".
func tableName(path string) string {
	base := path
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndex(base, "."); i > 0 {
		base = base[:i]
	}
	return base
}
