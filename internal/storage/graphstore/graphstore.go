// Package graphstore is an in-process labeled property graph, stand-in
// for the Neo4j instances the surveyed lakes use: the provenance tracker
// keeps lineage in it (Sec. 6.7). It supports node and edge insertion
// and reachability traversal.
package graphstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by the graph.
var (
	ErrNodeNotFound = errors.New("graphstore: node not found")
	ErrDuplicateID  = errors.New("graphstore: duplicate node id")
)

// Props is a property bag on nodes and edges.
type Props map[string]any

// clone returns a shallow copy so callers cannot mutate stored state.
func (p Props) clone() Props {
	out := make(Props, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Node is a labeled vertex.
type Node struct {
	ID    string
	Label string
	Props Props
}

// Edge is a directed labeled edge.
type Edge struct {
	ID    int
	From  string
	To    string
	Label string
	Props Props
}

// Graph is a concurrency-safe directed property graph.
type Graph struct {
	mu     sync.RWMutex
	nodes  map[string]*Node
	out    map[string][]int // node -> edge IDs
	in     map[string][]int
	edges  map[int]*Edge
	nextID int
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		nodes: map[string]*Node{},
		out:   map[string][]int{},
		in:    map[string][]int{},
		edges: map[int]*Edge{},
	}
}

// AddNode inserts a node; duplicate IDs return ErrDuplicateID.
func (g *Graph) AddNode(id, label string, props Props) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	g.nodes[id] = &Node{ID: id, Label: label, Props: props.clone()}
	return nil
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(id string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.nodes[id]
	return ok
}

// AddEdge inserts a directed edge and returns its ID. Both endpoints
// must exist.
func (g *Graph) AddEdge(from, to, label string, props Props) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[from]; !ok {
		return 0, fmt.Errorf("%w: %s", ErrNodeNotFound, from)
	}
	if _, ok := g.nodes[to]; !ok {
		return 0, fmt.Errorf("%w: %s", ErrNodeNotFound, to)
	}
	g.nextID++
	e := &Edge{ID: g.nextID, From: from, To: to, Label: label, Props: props.clone()}
	g.edges[e.ID] = e
	g.out[from] = append(g.out[from], e.ID)
	g.in[to] = append(g.in[to], e.ID)
	return e.ID, nil
}

// Direction selects traversal direction.
type Direction int

// Traversal directions.
const (
	Out Direction = iota
	In
	Both
)

func (g *Graph) neighborsLocked(id string, dir Direction) []string {
	seen := map[string]struct{}{}
	if dir == Out || dir == Both {
		for _, eid := range g.out[id] {
			seen[g.edges[eid].To] = struct{}{}
		}
	}
	if dir == In || dir == Both {
		for _, eid := range g.in[id] {
			seen[g.edges[eid].From] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Reachable returns all node IDs reachable from src (excluding src)
// following dir, sorted.
func (g *Graph) Reachable(src string, dir Direction) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := map[string]struct{}{src: {}}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.neighborsLocked(cur, dir) {
			if _, ok := seen[nb]; ok {
				continue
			}
			seen[nb] = struct{}{}
			queue = append(queue, nb)
		}
	}
	delete(seen, src)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
