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
	"golake/internal/storage/graphstore"
	"golake/internal/storage/kvstore"
	"golake/internal/table"
)

// Target identifies one member store of the polystore.
type Target string

// The member stores.
const (
	TargetRelational Target = "relational"
	TargetDocument   Target = "document"
	TargetGraph      Target = "graph"
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

// Poly bundles the member stores and routes ingested objects. All raw
// bytes always land in Files (the lake keeps originals); parsed forms
// go to the model store chosen by Route or by explicit override —
// exactly Constance's strategy (Sec. 4.3).
type Poly struct {
	Files *filestore.Store
	KV    *kvstore.Store
	Docs  *docstore.Store
	Graph *graphstore.Graph
	Rel   *RelStore

	mu         sync.RWMutex
	placements map[string]Placement
}

// New assembles a polystore over a file store rooted at dir.
func New(dir string) (*Poly, error) {
	fs, err := filestore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Poly{
		Files:      fs,
		KV:         kvstore.New(),
		Docs:       docstore.New(),
		Graph:      graphstore.New(),
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

// Ingest stores the raw object and routes its parsed form to the model
// store chosen by Route. Use IngestAs to override the target.
func (p *Poly) Ingest(path string, data []byte) (Placement, error) {
	pl, _, err := p.IngestParsed(path, data)
	return pl, err
}

// IngestParsed is Ingest that also hands back the table it parsed for
// the relational store (nil for any other placement), the caller's own
// copy, so that describing the object next needs no second parse.
func (p *Poly) IngestParsed(path string, data []byte) (Placement, *table.Table, error) {
	info, err := p.Files.Put(path, data)
	if err != nil {
		return Placement{}, nil, err
	}
	pl, t := p.place(path, data, info.Format, Route(info.Format))
	return pl, t, nil
}

// IngestAs stores the raw object and forces the given target, the
// user-override Constance exposes in its UI.
func (p *Poly) IngestAs(path string, data []byte, target Target) (Placement, error) {
	info, err := p.Files.Put(path, data)
	if err != nil {
		return Placement{}, err
	}
	pl, _ := p.place(path, data, info.Format, target)
	return pl, nil
}

func (p *Poly) place(path string, data []byte, format filestore.Format, target Target) (pl Placement, parsed *table.Table) {
	pl = Placement{Path: path, Format: format, Target: TargetFile}
	switch target {
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
	case TargetGraph:
		// Graph ingestion expects JSON {"nodes":[...], "edges":[...]}.
		if err := p.ingestGraphJSON(data); err != nil {
			break
		}
		pl.Target = TargetGraph
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

type graphDoc struct {
	Nodes []struct {
		ID    string         `json:"id"`
		Label string         `json:"label"`
		Props map[string]any `json:"props"`
	} `json:"nodes"`
	Edges []struct {
		From  string         `json:"from"`
		To    string         `json:"to"`
		Label string         `json:"label"`
		Props map[string]any `json:"props"`
	} `json:"edges"`
}

func (p *Poly) ingestGraphJSON(data []byte) error {
	var gd graphDoc
	if err := json.Unmarshal(data, &gd); err != nil {
		return fmt.Errorf("polystore: graph json: %w", err)
	}
	if len(gd.Nodes) == 0 {
		return fmt.Errorf("polystore: graph json has no nodes")
	}
	for _, n := range gd.Nodes {
		p.Graph.UpsertNode(n.ID, n.Label, n.Props)
	}
	for _, e := range gd.Edges {
		if _, err := p.Graph.AddEdge(e.From, e.To, e.Label, e.Props); err != nil {
			return err
		}
	}
	return nil
}

// Remove deletes an ingested object everywhere it landed: the raw
// bytes, any parsed model-store form, and the placement record. Graph
// placements keep their merged nodes (the graph has no per-source
// attribution to unmerge). Removing an unknown path returns
// filestore.ErrNotFound.
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
