package polystore

import (
	"bytes"
	"encoding/json"
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
	pl, _, err := p.IngestParsed(path, data, nil)
	return pl, err
}

// IngestParsed is Ingest for a caller that keeps the raw bytes itself:
// Files reads them back through read (a nil read keeps a copy in
// memory). It also hands back the table it parsed for the relational
// store (nil for any other placement), so that describing the object
// next needs no second parse. That table is the store's own, as View
// lends it: the caller must not modify it or keep it.
func (p *Poly) IngestParsed(path string, data []byte, read filestore.ReadFunc) (Placement, *table.Table, error) {
	info, err := p.Files.Put(path, data, read)
	if err != nil {
		return Placement{}, nil, err
	}
	pl, t := p.place(path, data, info.Format)
	return pl, t, nil
}

func (p *Poly) place(path string, data []byte, format filestore.Format) (pl Placement, parsed *table.Table) {
	pl = Placement{Path: path, Format: format, Target: TargetFile}
	switch Route(format) {
	case TargetRelational:
		t, err := table.ReadCSV(tableName(path), data)
		if err != nil {
			// Unparseable: degrade to file-only, the lake keeps the raw
			// bytes regardless.
			break
		}
		t.Meta["source"] = path
		p.Rel.Create(t)
		pl.Target = TargetRelational
		pl.TableName = t.Name
		parsed = t
	case TargetDocument:
		coll := tableName(path)
		n, err := p.ingestJSONDocs(coll, data, format)
		if err != nil || n == 0 {
			break
		}
		pl.Target = TargetDocument
		pl.Collection = coll
	}
	p.mu.Lock()
	p.placements[path] = pl
	p.mu.Unlock()
	return pl, parsed
}

func (p *Poly) ingestJSONDocs(coll string, data []byte, format filestore.Format) (int, error) {
	c := p.Docs.Collection(coll)
	if format == filestore.FormatJSONL {
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if _, err := c.InsertJSON([]byte(line)); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var docs []docstore.Doc
		if err := json.Unmarshal(trimmed, &docs); err != nil {
			return 0, err
		}
		for _, d := range docs {
			c.Insert(d)
		}
		return len(docs), nil
	}
	if _, err := c.InsertJSON(trimmed); err != nil {
		return 0, err
	}
	return 1, nil
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
