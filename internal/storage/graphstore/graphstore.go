// Package graphstore is an in-process labeled property graph, stand-in
// for the Neo4j instances the surveyed lakes use: the personal data lake
// stores flattened JSON fragments in it, HANDLE implements its metadata
// model on it, and Juneau keeps workflow/variable graphs in it
// (Sec. 4.2, 5.2, 6.1.3). It supports node/edge CRUD, label and
// property lookup, neighbor traversal, BFS shortest paths and simple
// node-edge-node pattern matching.
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
	ErrEdgeNotFound = errors.New("graphstore: edge not found")
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

// UpsertNode inserts or replaces a node, preserving its edges.
func (g *Graph) UpsertNode(id, label string, props Props) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nodes[id] = &Node{ID: id, Label: label, Props: props.clone()}
}

// Node returns a copy of the node.
func (g *Graph) Node(id string) (Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return Node{}, fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	return Node{ID: n.ID, Label: n.Label, Props: n.Props.clone()}, nil
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(id string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.nodes[id]
	return ok
}

// SetProp sets one property on a node.
func (g *Graph) SetProp(id, key string, value any) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	if n.Props == nil {
		n.Props = Props{}
	}
	n.Props[key] = value
	return nil
}

// RemoveNode deletes a node and all incident edges.
func (g *Graph) RemoveNode(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNodeNotFound, id)
	}
	for _, eid := range append(append([]int{}, g.out[id]...), g.in[id]...) {
		g.removeEdgeLocked(eid)
	}
	delete(g.nodes, id)
	delete(g.out, id)
	delete(g.in, id)
	return nil
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

// Edge returns a copy of the edge.
func (g *Graph) Edge(id int) (Edge, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.edges[id]
	if !ok {
		return Edge{}, fmt.Errorf("%w: %d", ErrEdgeNotFound, id)
	}
	out := *e
	out.Props = e.Props.clone()
	return out, nil
}

func (g *Graph) removeEdgeLocked(id int) {
	e, ok := g.edges[id]
	if !ok {
		return
	}
	g.out[e.From] = removeInt(g.out[e.From], id)
	g.in[e.To] = removeInt(g.in[e.To], id)
	delete(g.edges, id)
}

func removeInt(list []int, v int) []int {
	for i, x := range list {
		if x == v {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// NodesByLabel returns copies of all nodes with the label, sorted by ID.
func (g *Graph) NodesByLabel(label string) []Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Node
	for _, n := range g.nodes {
		if n.Label == label {
			out = append(out, Node{ID: n.ID, Label: n.Label, Props: n.Props.clone()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NodeIDsWhere returns the IDs of the nodes with the label whose
// properties satisfy keep, sorted. keep runs under the graph's read lock
// on the stored bag, which it must not modify or retain; nothing is
// copied.
func (g *Graph) NodeIDsWhere(label string, keep func(Props) bool) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for _, n := range g.nodes {
		if n.Label == label && keep(n.Props) {
			out = append(out, n.ID)
		}
	}
	sort.Strings(out)
	return out
}

// Direction selects traversal direction.
type Direction int

// Traversal directions.
const (
	Out Direction = iota
	In
	Both
)

// OutEdges returns copies of the outgoing edges of a node, sorted by ID.
func (g *Graph) OutEdges(id string) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Edge
	for _, eid := range g.out[id] {
		e := g.edges[eid]
		c := *e
		c.Props = e.Props.clone()
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InEdges returns copies of the incoming edges of a node, sorted by ID.
func (g *Graph) InEdges(id string) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []Edge
	for _, eid := range g.in[id] {
		e := g.edges[eid]
		c := *e
		c.Props = e.Props.clone()
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ShortestPath returns a minimal-hop node path from src to dst following
// edges per dir, or nil when unreachable. Provenance queries ("how was
// this dataset derived?") are path queries of exactly this shape.
func (g *Graph) ShortestPath(src, dst string, dir Direction) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.nodes[src]; !ok {
		return nil
	}
	if _, ok := g.nodes[dst]; !ok {
		return nil
	}
	if src == dst {
		return []string{src}
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.neighborsLocked(cur, dir) {
			if _, seen := prev[nb]; seen {
				continue
			}
			prev[nb] = cur
			if nb == dst {
				return buildPath(prev, src, dst)
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

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

func buildPath(prev map[string]string, src, dst string) []string {
	var rev []string
	for cur := dst; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
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

// Triple is one node-edge-node pattern match.
type Triple struct {
	From Node
	Edge Edge
	To   Node
}

// Match returns all (from)-[edge]->(to) triples whose labels equal the
// given ones; empty strings are wildcards. Results are ordered by edge
// ID.
func (g *Graph) Match(fromLabel, edgeLabel, toLabel string) []Triple {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := make([]int, 0, len(g.edges))
	for id := range g.edges {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []Triple
	for _, id := range ids {
		e := g.edges[id]
		from, to := g.nodes[e.From], g.nodes[e.To]
		if fromLabel != "" && from.Label != fromLabel {
			continue
		}
		if edgeLabel != "" && e.Label != edgeLabel {
			continue
		}
		if toLabel != "" && to.Label != toLabel {
			continue
		}
		ec := *e
		ec.Props = e.Props.clone()
		out = append(out, Triple{
			From: Node{ID: from.ID, Label: from.Label, Props: from.Props.clone()},
			Edge: ec,
			To:   Node{ID: to.ID, Label: to.Label, Props: to.Props.clone()},
		})
	}
	return out
}
