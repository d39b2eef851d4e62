package organize

import (
	"sort"

	"golake/internal/sketch"
	"golake/internal/storage/graphstore"
	"golake/internal/workload"
)

// WorkflowGraph realizes Juneau's two graph structures (Sec. 6.1.3,
// Table 2): a directed bipartite *workflow graph* with data-object
// nodes and computational-module nodes, and a *variable-dependency
// graph* whose nodes are notebook variables connected by labeled edges
// "output = fn(input)". Provenance similarity between two tables is the
// similarity of their dependency neighborhoods — Juneau's
// subgraph-based relatedness signal.
type WorkflowGraph struct {
	g *graphstore.Graph
}

// Node labels of the bipartite workflow graph.
const (
	labelDataObject = "data"
	labelModule     = "module"
	labelVariable   = "variable"
)

// NewWorkflowGraph creates an empty workflow graph.
func NewWorkflowGraph() *WorkflowGraph {
	return &WorkflowGraph{g: graphstore.New()}
}

// Graph exposes the underlying property graph.
func (w *WorkflowGraph) Graph() *graphstore.Graph { return w.g }

// AddDataObject registers a data-object node (file, table, or cell
// output).
func (w *WorkflowGraph) AddDataObject(id string) {
	w.g.UpsertNode("d:"+id, labelDataObject, nil)
}

// AddModule registers a computational module (code cell) consuming the
// given inputs and producing the outputs — edges run input -> module ->
// output, making the graph bipartite.
func (w *WorkflowGraph) AddModule(id string, inputs, outputs []string) error {
	w.g.UpsertNode("m:"+id, labelModule, nil)
	for _, in := range inputs {
		w.AddDataObject(in)
		if _, err := w.g.AddEdge("d:"+in, "m:"+id, "feeds", nil); err != nil {
			return err
		}
	}
	for _, out := range outputs {
		w.AddDataObject(out)
		if _, err := w.g.AddEdge("m:"+id, "d:"+out, "produces", nil); err != nil {
			return err
		}
	}
	return nil
}

// AddVariableDep records a variable-dependency edge: output was
// computed from input via function fn (the edge label of Table 2).
func (w *WorkflowGraph) AddVariableDep(input, output, fn string) error {
	w.g.UpsertNode("v:"+input, labelVariable, nil)
	w.g.UpsertNode("v:"+output, labelVariable, nil)
	_, err := w.g.AddEdge("v:"+input, "v:"+output, fn, nil)
	return err
}

// FromNotebook loads a generated notebook: each step becomes a module
// and a variable dependency.
func (w *WorkflowGraph) FromNotebook(nb *workload.Notebook) error {
	for i, op := range nb.Steps {
		in := nb.Tables[i].Name
		out := nb.Tables[i+1].Name
		if err := w.AddModule(out+"_step", []string{in}, []string{out}); err != nil {
			return err
		}
		if err := w.AddVariableDep(in, out, op); err != nil {
			return err
		}
	}
	return nil
}

// Derivations returns the data objects transitively derived from id via
// modules, sorted.
func (w *WorkflowGraph) Derivations(id string) []string {
	var out []string
	for _, n := range w.g.Reachable("d:"+id, graphstore.Out) {
		if len(n) > 2 && n[:2] == "d:" {
			out = append(out, n[2:])
		}
	}
	sort.Strings(out)
	return out
}

// Lineage returns the data objects id was derived from, sorted.
func (w *WorkflowGraph) Lineage(id string) []string {
	var out []string
	for _, n := range w.g.Reachable("d:"+id, graphstore.In) {
		if len(n) > 2 && n[:2] == "d:" {
			out = append(out, n[2:])
		}
	}
	sort.Strings(out)
	return out
}

// dependencyNeighborhood collects the variables adjacent to a variable
// in the dependency graph plus incident edge labels.
func (w *WorkflowGraph) dependencyNeighborhood(v string) sketch.Set {
	var out []string
	for _, e := range w.g.OutEdges("v:" + v) {
		out = append(out, "->"+e.To, "fn:"+e.Label)
	}
	for _, e := range w.g.InEdges("v:" + v) {
		out = append(out, "<-"+e.From, "fn:"+e.Label)
	}
	return sketch.ToSet(out)
}

// ProvenanceSimilarity approximates Juneau's variable-dependency
// subgraph similarity: the Jaccard similarity of the two variables'
// dependency neighborhoods (shared neighbor variables and shared
// function labels). Variables connected by a direct edge get a floor of
// 0.5.
func (w *WorkflowGraph) ProvenanceSimilarity(a, b string) float64 {
	na := w.dependencyNeighborhood(a)
	nb := w.dependencyNeighborhood(b)
	sim := sketch.ExactJaccard(na, nb)
	if (na.Has("->v:"+b) || na.Has("<-v:"+b)) && sim < 0.5 {
		sim = 0.5
	}
	return sim
}
