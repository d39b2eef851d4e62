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
	props := Props{"rows": 10}
	if err := g.AddNode("a", "dataset", props); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("a", "dataset", nil); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate AddNode = %v", err)
	}
	if !g.HasNode("a") || g.HasNode("b") {
		t.Errorf("HasNode(a), HasNode(b) = %v, %v; want true, false", g.HasNode("a"), g.HasNode("b"))
	}
	// The stored props are a copy of the caller's.
	props["rows"] = 99
	g.mu.RLock()
	n := *g.nodes["a"]
	g.mu.RUnlock()
	if n.Label != "dataset" || n.Props["rows"] != 10 {
		t.Errorf("stored node = %+v", n)
	}
}

func TestEdgeCRUDAndEndpointChecks(t *testing.T) {
	g := New()
	_ = g.AddNode("a", "x", nil)
	_ = g.AddNode("b", "x", nil)
	if _, err := g.AddEdge("a", "missing", "l", nil); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("AddEdge missing dst = %v", err)
	}
	if _, err := g.AddEdge("missing", "b", "l", nil); !errors.Is(err, ErrNodeNotFound) {
		t.Errorf("AddEdge missing src = %v", err)
	}
	id, err := g.AddEdge("a", "b", "rel", Props{"w": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	out := outEdges(g, "a")
	if len(out) != 1 || out[0].ID != id || out[0].To != "b" || out[0].Props["w"] != 0.5 {
		t.Fatalf("out edges = %+v", out)
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
		for i := 0; i < 10; i++ {
			out := outEdges(g, fmt.Sprintf("n%d", i))
			total += len(out)
			for _, e := range out {
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

// Traversal follows edges forwards, backwards, or both ways.
func TestInOutEdges(t *testing.T) {
	g := buildChain(t, 3)
	if got := g.Reachable("n1", Out); fmt.Sprint(got) != "[n2]" {
		t.Errorf("Reachable(n1, Out) = %v", got)
	}
	if got := g.Reachable("n1", In); fmt.Sprint(got) != "[n0]" {
		t.Errorf("Reachable(n1, In) = %v", got)
	}
	if got := g.Reachable("n1", Both); fmt.Sprint(got) != "[n0 n2]" {
		t.Errorf("Reachable(n1, Both) = %v", got)
	}
}

// edgeCount reads the number of stored edges.
func edgeCount(g *Graph) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// outEdges reads the stored outgoing edges of a node, sorted by ID.
func outEdges(g *Graph, id string) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Edge
	for _, eid := range g.out[id] {
		out = append(out, *g.edges[eid])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
