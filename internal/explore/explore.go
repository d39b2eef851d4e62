// Package explore implements the exploration tier's query-driven data
// discovery (Sec. 7.1 of the survey): the three input/output modes the
// survey identifies —
//
//  1. column mode (JOSIE): given a table T and a column c, return the
//     top-k tables joinable with T on c;
//  2. populate mode (D3L): given a table T, return the top-k tables
//     providing relevant attributes to populate T, extended with
//     tables that join with the result set and improve attribute
//     coverage;
//  3. task mode (Juneau): given T and a data-science task, return the
//     top-k most relevant tables under the task's relatedness measure.
//
// The Explorer shares the discovery indexes built by the maintenance
// tier instead of re-indexing per query.
package explore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"golake/internal/discovery"
	"golake/internal/metamodel"
	"golake/internal/table"
)

// Mode selects the exploration input/output mode.
type Mode int

// The three exploration modes of Sec. 7.1.
const (
	ModeJoinColumn Mode = iota
	ModePopulate
	ModeTask
)

// ErrNotIndexed is returned when the explorer has no corpus.
var ErrNotIndexed = errors.New("explore: corpus not indexed")

// Request is one exploration query.
type Request struct {
	Mode Mode
	// Query is the user-specified table.
	Query *table.Table
	// Column is required for ModeJoinColumn.
	Column string
	// Task is used by ModeTask.
	Task discovery.SearchTask
	// K bounds the result size.
	K int
}

// Result is one ranked exploration answer.
type Result struct {
	Table string
	Score float64
	// Via explains the ranking ("overlap", "populate", "coverage",
	// task name).
	Via string
}

// Explorer serves exploration queries over pre-built indexes. Queries
// and incremental Add calls may run concurrently: reads take the
// internal lock shared, index mutation takes it exclusive.
type Explorer struct {
	mu      sync.RWMutex
	corpus  map[string]*table.Table
	josie   *discovery.JOSIE
	d3l     *discovery.D3L
	juneau  map[discovery.SearchTask]*discovery.Juneau
	indexed bool
}

// NewExplorer creates an empty explorer.
func NewExplorer() *Explorer {
	return &Explorer{
		corpus: map[string]*table.Table{},
		juneau: map[discovery.SearchTask]*discovery.Juneau{},
	}
}

// reset discards every index, leaving the explorer empty.
func (e *Explorer) reset() {
	e.corpus = map[string]*table.Table{}
	e.josie = discovery.NewJOSIE()
	e.d3l = discovery.NewD3L()
	e.juneau = map[discovery.SearchTask]*discovery.Juneau{}
	for _, task := range []discovery.SearchTask{discovery.TaskAugment, discovery.TaskFeatures, discovery.TaskClean} {
		e.juneau[task] = discovery.NewJuneau(task)
	}
}

// Index rebuilds all mode indexes from scratch over the corpus.
func (e *Explorer) Index(tables []*table.Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reset()
	return e.addLocked(tables)
}

// Add indexes additional tables incrementally — O(new tables) instead
// of O(corpus) — for maintenance passes covering freshly ingested
// datasets. Tables already indexed are skipped, so a retried pass
// cannot double-index. The D3L embedding model is corpus-trained;
// incremental adds extend it without re-embedding older columns, an
// approximation the next full rebuild squares up.
func (e *Explorer) Add(tables ...*table.Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.josie == nil {
		e.reset()
	}
	fresh := make([]*table.Table, 0, len(tables))
	for _, t := range tables {
		if _, ok := e.corpus[t.Name]; !ok {
			fresh = append(fresh, t)
		}
	}
	return e.addLocked(fresh)
}

// addLocked indexes tables into the live structures; e.mu must be held
// exclusively.
func (e *Explorer) addLocked(tables []*table.Table) error {
	for _, t := range tables {
		e.corpus[t.Name] = t
	}
	if err := e.josie.Index(tables); err != nil {
		return err
	}
	if err := e.d3l.Index(tables); err != nil {
		return err
	}
	for _, j := range e.juneau {
		if err := j.Index(tables); err != nil {
			return err
		}
	}
	e.indexed = true
	return nil
}

// Remove deletes one table from the corpus and every mode index — the
// incremental eviction counterpart of Add, so dropping a dataset does
// not force a full rebuild. Removing an unindexed table is a no-op.
func (e *Explorer) Remove(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.josie == nil {
		return
	}
	if _, ok := e.corpus[name]; !ok {
		return
	}
	delete(e.corpus, name)
	e.josie.Remove(name)
	e.d3l.Remove(name)
	for _, j := range e.juneau {
		j.Remove(name)
	}
}

// Tables returns the indexed table names, sorted.
func (e *Explorer) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.corpus))
	for name := range e.corpus {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Size reports how many tables the indexes cover.
func (e *Explorer) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.corpus)
}

// Explore answers a request in its mode.
func (e *Explorer) Explore(req Request) ([]Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.indexed {
		return nil, ErrNotIndexed
	}
	if req.Query == nil {
		return nil, fmt.Errorf("explore: nil query table")
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	switch req.Mode {
	case ModeJoinColumn:
		return e.joinColumn(req.Query, req.Column, k)
	case ModePopulate:
		return e.populate(req.Query, k)
	case ModeTask:
		return e.task(req.Query, req.Task, k)
	default:
		return nil, fmt.Errorf("explore: unknown mode %d", req.Mode)
	}
}

// joinColumn is mode 1: exact top-k joinable tables on one column.
func (e *Explorer) joinColumn(q *table.Table, column string, k int) ([]Result, error) {
	matches, err := e.josie.JoinableColumns(q, column, 4*k)
	if err != nil {
		return nil, err
	}
	best := map[string]float64{}
	for _, m := range matches {
		if m.Score > best[m.Ref.Table] {
			best[m.Ref.Table] = m.Score
		}
	}
	out := rankResults(best, k, "overlap")
	return out, nil
}

// populate is mode 2: D3L-ranked relevant tables, extended with
// coverage-improving joinable tables outside the top-k (the Si
// extension the survey describes for D3L).
func (e *Explorer) populate(q *table.Table, k int) ([]Result, error) {
	top := e.d3l.RelatedTables(q, k)
	out := make([]Result, 0, len(top))
	inTop := map[string]bool{q.Name: true}
	covered := map[string]bool{}
	for _, ts := range top {
		inTop[ts.Table] = true
		out = append(out, Result{Table: ts.Table, Score: ts.Score, Via: "populate"})
		for _, col := range e.corpus[ts.Table].ColumnNames() {
			covered[col] = true
		}
	}
	// Coverage extension: a table not in the top-k that joins with a
	// top-k table and contributes attributes the result set lacks.
	for _, ts := range top {
		member := e.corpus[ts.Table]
		if member == nil {
			continue
		}
		for _, joined := range e.josie.RelatedTables(member, k) {
			if inTop[joined.Table] {
				continue
			}
			cand := e.corpus[joined.Table]
			if cand == nil {
				continue
			}
			adds := 0
			for _, col := range cand.ColumnNames() {
				if !covered[col] {
					adds++
				}
			}
			if adds == 0 {
				continue
			}
			inTop[joined.Table] = true
			for _, col := range cand.ColumnNames() {
				covered[col] = true
			}
			out = append(out, Result{Table: joined.Table, Score: joined.Score, Via: "coverage"})
		}
	}
	return out, nil
}

// task is mode 3: Juneau's task-specific relatedness.
func (e *Explorer) task(q *table.Table, task discovery.SearchTask, k int) ([]Result, error) {
	j, ok := e.juneau[task]
	if !ok {
		return nil, fmt.Errorf("explore: unknown task %d", task)
	}
	via := taskName(task)
	var out []Result
	for _, ts := range j.RelatedTables(q, k) {
		out = append(out, Result{Table: ts.Table, Score: ts.Score, Via: via})
	}
	return out, nil
}

func taskName(task discovery.SearchTask) string {
	switch task {
	case discovery.TaskAugment:
		return "augment"
	case discovery.TaskFeatures:
		return "features"
	default:
		return "clean"
	}
}

func rankResults(scores map[string]float64, k int, via string) []Result {
	out := make([]Result, 0, len(scores))
	for t, s := range scores {
		out = append(out, Result{Table: t, Score: s, Via: via})
	}
	slices.SortFunc(out, func(a, b Result) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return strings.Compare(a.Table, b.Table)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// JoinPaths exposes Aurum-style discovery paths between two tables via
// any shared discovery signal, delegating to an EKG when available.
func JoinPaths(ekg *metamodel.EKG, from, to metamodel.ColumnRef, minWeight float64) []metamodel.ColumnRef {
	return ekg.PathBetween(from, to, minWeight)
}
