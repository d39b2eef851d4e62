package graphstore

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func buildChain(t *testing.T, n int) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < n; i++ {
		if err := g.AddNode(fmt.Sprintf("n%d", i), "node", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		if _, err := g.AddEdge(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), "next", nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNodeCRUD(t *testing.T) {
	g := New()
	if err := g.AddNode("a", "dataset", Props{"rows": 10}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("a", "dataset", nil); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate AddNode = %v", err)
	}
	n, err := g.Node("a")
	if err != nil || n.Label != "dataset" || n.Props["rows"] != 10 {
		t.Fatalf("Node = %+v, %v", n, err)
	}
	// Returned props are a copy.
	n.Props["rows"] = 99
	n2, _ := g.Node("a")
	if n2.Props["rows"] != 10 {
		t.Error("Node returned shared props")
	}
	if err := g.SetProp("a", "owner", "ops"); err != nil {
		t.Fatal(err)
	}
	n3, _ := g.Node("a")
	if n3.Props["owner"] != "ops" {
		t.Error("SetProp lost")
	}
	if err := g.RemoveNode("a"); err != nil {
		t.Fatal(err)
	}
	if g.HasNode("a") {
		t.Error("node still present after remove")
	}
	if err := g.RemoveNode("a"); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("double remove = %v", err)
	}
}

func TestEdgeCRUDAndEndpointChecks(t *testing.T) {
	g := New()
	_ = g.AddNode("a", "x", nil)
	_ = g.AddNode("b", "x", nil)
	if _, err := g.AddEdge("a", "missing", "l", nil); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("AddEdge missing dst = %v", err)
	}
	id, err := g.AddEdge("a", "b", "rel", Props{"w": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	out := g.OutEdges("a")
	if len(out) != 1 || out[0].ID != id || out[0].To != "b" || out[0].Props["w"] != 0.5 {
		t.Fatalf("OutEdges = %+v", out)
	}
}

func TestRemoveNodeCascadesEdges(t *testing.T) {
	g := buildChain(t, 3)
	if n := edgeCount(g); n != 2 {
		t.Fatalf("edges = %d", n)
	}
	if err := g.RemoveNode("n1"); err != nil {
		t.Fatal(err)
	}
	if n := edgeCount(g); n != 0 {
		t.Errorf("edges not cascaded: %d", n)
	}
	if got := g.OutEdges("n0"); len(got) != 0 {
		t.Errorf("dangling edge: %v", got)
	}
}

func TestReachable(t *testing.T) {
	g := buildChain(t, 4)
	got := g.Reachable("n1", Out)
	if len(got) != 2 || got[0] != "n2" || got[1] != "n3" {
		t.Errorf("Reachable = %v", got)
	}
	if got := g.Reachable("n3", Out); len(got) != 0 {
		t.Errorf("Reachable sink = %v", got)
	}
}

func TestNodeIDsWhere(t *testing.T) {
	g := New()
	_ = g.AddNode("z", "ds", Props{"zone": "raw"})
	_ = g.AddNode("a", "ds", Props{"zone": "raw"})
	_ = g.AddNode("b", "ds", Props{"zone": "curated"})
	_ = g.AddNode("m", "other", Props{"zone": "raw"})
	inRaw := func(p Props) bool { return p["zone"] == "raw" }
	if got := g.NodeIDsWhere("ds", inRaw); fmt.Sprint(got) != "[a z]" {
		t.Errorf("NodeIDsWhere(ds, raw) = %v, want [a z]", got)
	}
	if got := g.NodeIDsWhere("none", inRaw); len(got) != 0 {
		t.Errorf("NodeIDsWhere(none) = %v, want empty", got)
	}
}

// Property: after arbitrary node/edge insertions, every edge's endpoints
// exist, and the edge count equals the sum of out-degree.
func TestGraphInvariants(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		g := New()
		for i := 0; i < 10; i++ {
			_ = g.AddNode(fmt.Sprintf("n%d", i), "n", nil)
		}
		for _, p := range pairs {
			from := fmt.Sprintf("n%d", p[0]%10)
			to := fmt.Sprintf("n%d", p[1]%10)
			if _, err := g.AddEdge(from, to, "e", nil); err != nil {
				return false
			}
		}
		total := 0
		for _, id := range g.Nodes() {
			total += len(g.OutEdges(id))
			for _, e := range g.OutEdges(id) {
				if !g.HasNode(e.From) || !g.HasNode(e.To) {
					return false
				}
			}
		}
		return total == edgeCount(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInOutEdges(t *testing.T) {
	g := buildChain(t, 3)
	out := g.OutEdges("n0")
	if len(out) != 1 || out[0].To != "n1" {
		t.Errorf("OutEdges = %+v", out)
	}
	in := g.InEdges("n1")
	if len(in) != 1 || in[0].From != "n0" {
		t.Errorf("InEdges = %+v", in)
	}
}

func TestUpsertNode(t *testing.T) {
	g := buildChain(t, 2)
	g.UpsertNode("n0", "renamed", Props{"x": 1})
	n, _ := g.Node("n0")
	if n.Label != "renamed" {
		t.Errorf("label = %q", n.Label)
	}
	if edgeCount(g) != 1 {
		t.Error("upsert dropped edges")
	}
}

// edgeCount reads the number of stored edges.
func edgeCount(g *Graph) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// Nodes returns all node IDs, sorted.
func (g *Graph) Nodes() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
