package metamodel

import (
	"sort"

	"golake/internal/sketch"
	"golake/internal/storage/graphstore"
)

// NetworkModel implements the network-based metadata model of
// Diamantini et al. (Sec. 5.2.3): sources contribute nodes for their
// fields (XML/JSON elements, table attributes) with business names and
// descriptions, connected by labeled arcs; nodes are merged across
// sources based on lexical similarity; nodes can be linked to external
// semantic knowledge; and thematic views — subgraphs around a topic of
// business interest, akin to data marts — are extracted on demand.
type NetworkModel struct {
	g *graphstore.Graph
	// merged maps an absorbed node ID to its representative.
	merged map[string]string
}

// NewNetworkModel creates an empty model.
func NewNetworkModel() *NetworkModel {
	return &NetworkModel{g: graphstore.New(), merged: map[string]string{}}
}

// Graph exposes the underlying graph.
func (m *NetworkModel) Graph() *graphstore.Graph { return m.g }

// AddSource contributes a source and its fields: one node per field,
// labeled "field", linked to a "source" node via hasField arcs.
// Descriptions feed the lexical merge.
func (m *NetworkModel) AddSource(source string, fields map[string]string) error {
	sid := "src:" + source
	if !m.g.HasNode(sid) {
		if err := m.g.AddNode(sid, "source", nil); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(fields))
	for f := range fields {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		fid := "field:" + source + "." + f
		if err := m.g.AddNode(fid, "field", graphstore.Props{
			"name":        f,
			"description": fields[f],
			"source":      source,
		}); err != nil {
			return err
		}
		if _, err := m.g.AddEdge(sid, fid, "hasField", nil); err != nil {
			return err
		}
	}
	return nil
}

// resolve follows merge links to the representative node.
func (m *NetworkModel) resolve(id string) string {
	for {
		rep, ok := m.merged[id]
		if !ok {
			return id
		}
		id = rep
	}
}

// MergeSimilar merges field nodes across sources whose names or
// descriptions are lexically similar (Levenshtein and token overlap),
// adding sameAs arcs and electing one representative. Returns the
// number of merges performed.
func (m *NetworkModel) MergeSimilar(minSim float64) (int, error) {
	fields := m.g.NodesByLabel("field")
	merges := 0
	for i := 0; i < len(fields); i++ {
		for j := i + 1; j < len(fields); j++ {
			a, b := fields[i], fields[j]
			if m.resolve(a.ID) == m.resolve(b.ID) {
				continue
			}
			srcA, _ := a.Props["source"].(string)
			srcB, _ := b.Props["source"].(string)
			if srcA == srcB {
				continue // merging happens across sources
			}
			if fieldSimilarity(a, b) < minSim {
				continue
			}
			repA, repB := m.resolve(a.ID), m.resolve(b.ID)
			if _, err := m.g.AddEdge(repB, repA, "sameAs", nil); err != nil {
				return merges, err
			}
			m.merged[repB] = repA
			merges++
		}
	}
	return merges, nil
}

func fieldSimilarity(a, b graphstore.Node) float64 {
	nameA, _ := a.Props["name"].(string)
	nameB, _ := b.Props["name"].(string)
	descA, _ := a.Props["description"].(string)
	descB, _ := b.Props["description"].(string)
	nameSim := sketch.LevenshteinSim(nameA, nameB)
	ids := sketch.NewDict()
	descSim := sketch.ExactJaccard(
		ids.Set(sketch.Tokenize(descA)),
		ids.Set(sketch.Tokenize(descB)),
	)
	if nameSim > descSim {
		return nameSim
	}
	return descSim
}

// LinkSemantic attaches an external knowledge reference (e.g. a
// DBpedia URI) to a field's representative node.
func (m *NetworkModel) LinkSemantic(source, field, uri string) error {
	id := m.resolve("field:" + source + "." + field)
	return m.g.SetProp(id, "semantic", uri)
}

// ThematicView extracts the subgraph of business interest around a
// topic: every representative field whose name, description or
// semantic link mentions a topic token, plus the sources providing
// it — the survey's "thematic views of interest to the business,
// similar to data marts".
type ThematicView struct {
	Topic   string
	Fields  []string // representative field node IDs
	Sources []string
}

// ExtractView builds the thematic view for a topic.
func (m *NetworkModel) ExtractView(topic string) ThematicView {
	ids := sketch.NewDict()
	toks := ids.Set(sketch.Tokenize(topic))
	view := ThematicView{Topic: topic}
	seenField := map[string]bool{}
	seenSource := map[string]bool{}
	for _, n := range m.g.NodesByLabel("field") {
		rep := m.resolve(n.ID)
		if seenField[rep] {
			continue
		}
		text := ""
		for _, k := range []string{"name", "description", "semantic"} {
			if v, ok := n.Props[k].(string); ok {
				text += " " + v
			}
		}
		if sketch.Overlap(toks, ids.Set(sketch.Tokenize(text))) == 0 {
			continue
		}
		seenField[rep] = true
		view.Fields = append(view.Fields, rep)
		// Sources of every merged member flow into the view.
		for _, member := range m.membersOf(rep) {
			node, err := m.g.Node(member)
			if err != nil {
				continue
			}
			if src, ok := node.Props["source"].(string); ok && !seenSource[src] {
				seenSource[src] = true
				view.Sources = append(view.Sources, src)
			}
		}
	}
	sort.Strings(view.Fields)
	sort.Strings(view.Sources)
	return view
}

// membersOf returns the representative plus every node merged into it.
func (m *NetworkModel) membersOf(rep string) []string {
	out := []string{rep}
	for id := range m.merged {
		if m.resolve(id) == rep {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Representatives returns the current representative field node IDs,
// sorted.
func (m *NetworkModel) Representatives() []string {
	var out []string
	seen := map[string]bool{}
	for _, n := range m.g.NodesByLabel("field") {
		rep := m.resolve(n.ID)
		if !seen[rep] {
			seen[rep] = true
			out = append(out, rep)
		}
	}
	sort.Strings(out)
	return out
}
