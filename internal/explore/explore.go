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
	"errors"
	"fmt"
	"sync"

	"golake/internal/discovery"
	"golake/internal/metamodel"
	"golake/internal/pool"
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
// and incremental Add calls may run concurrently: reads take mu shared,
// index mutation takes it exclusive. writeMu serialises Index, Add and
// Remove, so the fields below change only while it is held and a writer
// may read them without mu.
type Explorer struct {
	writeMu sync.Mutex
	mu      sync.RWMutex
	// cat is the one column catalog the three indexes read.
	cat   *discovery.Catalog
	josie *discovery.JOSIE
	d3l   *discovery.D3L
	// juneau answers every task: its profiles do not depend on the task.
	juneau  *discovery.Juneau
	indexed bool
}

// NewExplorer creates an empty explorer.
func NewExplorer() *Explorer {
	e := &Explorer{}
	e.reset()
	return e
}

// reset discards every index, leaving the explorer empty.
func (e *Explorer) reset() {
	e.cat = discovery.NewCatalog()
	e.josie = discovery.NewJOSIE(e.cat)
	e.d3l = discovery.NewD3L(e.cat)
	e.juneau = discovery.NewJuneau(e.cat, discovery.TaskAugment)
}

// Index rebuilds all mode indexes from scratch over the corpus. D3L
// profiles the tables on a pool of workers (D3L.Stage) while a second
// lane builds the catalog and JOSIE's postings: profiling reads
// neither. D3L and then Juneau commit after both, in the order Add
// commits, so every Dict id, LSH bucket and answer is what indexing the
// tables one lane at a time leaves.
func (e *Explorer) Index(tables []*table.Table) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reset()
	josied := make(chan error, 1)
	lane := func() { josied <- e.josie.Index(tables) }
	if pool.Size(len(tables)) == 1 {
		lane()
	} else {
		go lane()
	}
	staged := e.d3l.Stage(tables)
	if err := <-josied; err != nil {
		return err
	}
	return e.commitLocked(tables, staged)
}

// Add indexes additional tables incrementally — O(new tables) instead
// of O(corpus) — for maintenance passes covering freshly ingested
// datasets. Tables already indexed are skipped, so a retried pass
// cannot double-index. The D3L embedding model is corpus-trained;
// incremental adds extend it without re-embedding older columns, an
// approximation the next full rebuild squares up. D3L profiles the
// tables before Add takes the exclusive lock, so queries keep being
// answered meanwhile.
func (e *Explorer) Add(tables ...*table.Table) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	fresh := make([]*table.Table, 0, len(tables))
	for _, t := range tables {
		if !e.cat.Has(t.Name) {
			fresh = append(fresh, t)
		}
	}
	staged := e.d3l.Stage(fresh)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.josie.Index(fresh); err != nil {
		return err
	}
	return e.commitLocked(fresh, staged)
}

// commitLocked indexes tables, which JOSIE and the catalog hold and
// whose D3L profiles are staged, into D3L and Juneau; both locks must
// be held, e.mu exclusively.
func (e *Explorer) commitLocked(tables []*table.Table, staged *discovery.D3LStaged) error {
	if err := e.d3l.Commit(staged); err != nil {
		return err
	}
	if err := e.juneau.Index(tables); err != nil {
		return err
	}
	e.indexed = true
	return nil
}

// Remove deletes one table from every mode index, then the catalog —
// the incremental eviction counterpart of Add, so dropping a dataset
// does not force a full rebuild. Removing an unindexed table is a no-op.
func (e *Explorer) Remove(name string) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.josie.Remove(name)
	e.d3l.Remove(name)
	e.juneau.Remove(name)
	e.cat.Remove(name)
}

// TokenSumBytes is the memory D3L's embedding keeps in per-token sums.
func (e *Explorer) TokenSumBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.d3l.TokenSumBytes()
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
	return results(make([]Result, 0, len(best)), discovery.RankTables(best, k), "overlap"), nil
}

// populate is mode 2: D3L-ranked relevant tables, extended with
// coverage-improving joinable tables outside the top-k (the Si
// extension the survey describes for D3L).
func (e *Explorer) populate(q *table.Table, k int) ([]Result, error) {
	top := e.d3l.RelatedTables(q, k)
	out := results(make([]Result, 0, len(top)), top, "populate")
	inTop := map[string]bool{q.Name: true}
	covered := map[string]bool{}
	// cover marks a table's attributes covered, counting the new ones.
	cover := func(name string) (added int) {
		e.cat.EachColumn(name, func(column string) {
			if !covered[column] {
				covered[column] = true
				added++
			}
		})
		return added
	}
	for _, ts := range top {
		inTop[ts.Table] = true
		cover(ts.Table)
	}
	// Coverage extension: a table not in the top-k that joins with a
	// top-k table and contributes attributes the result set lacks.
	for _, ts := range top {
		for _, joined := range e.josie.RelatedTablesOf(ts.Table, k) {
			if inTop[joined.Table] || cover(joined.Table) == 0 {
				continue
			}
			inTop[joined.Table] = true
			out = append(out, Result{Table: joined.Table, Score: joined.Score, Via: "coverage"})
		}
	}
	return out, nil
}

// task is mode 3: Juneau's task-specific relatedness.
func (e *Explorer) task(q *table.Table, task discovery.SearchTask, k int) ([]Result, error) {
	via, ok := taskName(task)
	if !ok {
		return nil, fmt.Errorf("explore: unknown task %d", task)
	}
	return results(nil, e.juneau.RelatedTablesFor(q, task, k), via), nil
}

// taskName names a task for Result.Via; ok is false for an unknown one.
func taskName(task discovery.SearchTask) (name string, ok bool) {
	switch task {
	case discovery.TaskAugment:
		return "augment", true
	case discovery.TaskFeatures:
		return "features", true
	case discovery.TaskClean:
		return "clean", true
	}
	return "", false
}

// results appends ranked tables to dst, explained by via.
func results(dst []Result, ranked []metamodel.TableScore, via string) []Result {
	for _, ts := range ranked {
		dst = append(dst, Result{Table: ts.Table, Score: ts.Score, Via: via})
	}
	return dst
}
