package explore

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"golake/internal/discovery"
	"golake/internal/metamodel"
	"golake/internal/table"
	"golake/internal/workload"
)

func indexedExplorer(t *testing.T) (*Explorer, *workload.Corpus) {
	t.Helper()
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 12, JoinGroups: 3, RowsPerTable: 80,
		ExtraCols: 1, KeyVocab: 120, KeySample: 70, NoiseRate: 0.01, Seed: 23,
	})
	e := NewExplorer()
	if err := e.Index(c.Tables); err != nil {
		t.Fatal(err)
	}
	return e, c
}

func TestModeJoinColumn(t *testing.T) {
	e, c := indexedExplorer(t)
	q := c.Tables[0]
	res, err := e.Explore(Request{Mode: ModeJoinColumn, Query: q, Column: c.KeyColumn[q.Name], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %+v", res)
	}
	for _, r := range res {
		if !c.Joinable[workload.NewPair(q.Name, r.Table)] {
			t.Errorf("non-joinable result %+v", r)
		}
		if r.Via != "overlap" {
			t.Errorf("via = %q", r.Via)
		}
	}
	// Unknown column errors.
	if _, err := e.Explore(Request{Mode: ModeJoinColumn, Query: q, Column: "ghost", K: 3}); err == nil {
		t.Error("unknown column should error")
	}
}

func TestModePopulate(t *testing.T) {
	e, c := indexedExplorer(t)
	q := c.Tables[1]
	res, err := e.Explore(Request{Mode: ModePopulate, Query: q, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no populate results")
	}
	hits := 0
	for _, r := range res {
		if r.Via == "populate" && c.Joinable[workload.NewPair(q.Name, r.Table)] {
			hits++
		}
	}
	if hits < 2 {
		t.Errorf("populate quality too low: %+v", res)
	}
}

func TestModeTask(t *testing.T) {
	e, c := indexedExplorer(t)
	q := c.Tables[2]
	res, err := e.Explore(Request{Mode: ModeTask, Query: q, Task: discovery.TaskAugment, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %+v", res)
	}
	for _, r := range res {
		if !c.Unionable[workload.NewPair(q.Name, r.Table)] {
			t.Errorf("augment result not unionable: %+v", r)
		}
		if r.Via != "augment" {
			t.Errorf("via = %q", r.Via)
		}
	}
}

// The explorer keeps one Juneau index for all three tasks. Each task's
// answer must match, bit for bit, a standalone Juneau built for that
// task over the same tables, after a full Index, an incremental Add
// and a Remove.
func TestExplorerTaskModeMatchesJuneau(t *testing.T) {
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 12, JoinGroups: 3, RowsPerTable: 60,
		ExtraCols: 1, KeyVocab: 100, KeySample: 50, NoiseRate: 0.02, Seed: 29,
	})
	tasks := []discovery.SearchTask{discovery.TaskAugment, discovery.TaskFeatures, discovery.TaskClean}
	base, last := c.Tables[:len(c.Tables)-1], c.Tables[len(c.Tables)-1]
	e := NewExplorer()
	standalone := make([]*discovery.Juneau, len(tasks))
	for i, task := range tasks {
		standalone[i] = discovery.NewJuneau(discovery.NewCatalog(), task)
	}
	check := func(stage string) {
		t.Helper()
		for i, task := range tasks {
			for _, q := range c.Tables {
				got, err := e.Explore(Request{Mode: ModeTask, Query: q, Task: task, K: len(c.Tables)})
				if err != nil {
					t.Fatalf("%s: task %d: %v", stage, task, err)
				}
				want := standalone[i].RelatedTables(q, len(c.Tables))
				if len(got) != len(want) {
					t.Fatalf("%s: task %d, %s: %d answers, standalone Juneau %d", stage, task, q.Name, len(got), len(want))
				}
				for r := range got {
					if got[r].Table != want[r].Table || math.Float64bits(got[r].Score) != math.Float64bits(want[r].Score) {
						t.Errorf("%s: task %d, %s, rank %d: %s=%v, standalone Juneau %s=%v",
							stage, task, q.Name, r, got[r].Table, got[r].Score, want[r].Table, want[r].Score)
					}
				}
			}
		}
	}

	if err := e.Index(base); err != nil {
		t.Fatal(err)
	}
	for _, j := range standalone {
		if err := j.Index(base); err != nil {
			t.Fatal(err)
		}
	}
	check("after Index")

	if err := e.Add(last); err != nil {
		t.Fatal(err)
	}
	for _, j := range standalone {
		if err := j.Index([]*table.Table{last}); err != nil {
			t.Fatal(err)
		}
	}
	check("after Add")

	victim := c.Tables[2].Name
	e.Remove(victim)
	for _, j := range standalone {
		j.Remove(victim)
	}
	check("after Remove")

	_, err := e.Explore(Request{Mode: ModeTask, Query: last, Task: discovery.SearchTask(7), K: 3})
	if err == nil || err.Error() != "explore: unknown task 7" {
		t.Errorf("unknown task: %v, want explore: unknown task 7", err)
	}
}

func TestExploreErrors(t *testing.T) {
	e := NewExplorer()
	tbl, _ := table.ParseCSV("q", "a\n1\n")
	if _, err := e.Explore(Request{Mode: ModePopulate, Query: tbl}); !errors.Is(err, ErrNotIndexed) {
		t.Errorf("unindexed explore = %v", err)
	}
	_ = e.Index([]*table.Table{tbl})
	if _, err := e.Explore(Request{Mode: ModePopulate, Query: nil}); err == nil {
		t.Error("nil query should error")
	}
	if _, err := e.Explore(Request{Mode: Mode(99), Query: tbl}); err == nil {
		t.Error("unknown mode should error")
	}
}

func TestPopulateCoverageExtension(t *testing.T) {
	// Build a tiny corpus where a coverage table exists: q relates to a
	// (shared key values); b joins with a on another column and brings
	// new attributes, but b shares nothing with q.
	q, _ := table.ParseCSV("q", "k,v\nk1,1\nk2,2\nk3,3\n")
	a, _ := table.ParseCSV("a", "k,link\nk1,x1\nk2,x2\nk3,x3\n")
	b, _ := table.ParseCSV("b", "link,extra\nx1,e1\nx2,e2\nx3,e3\n")
	e := NewExplorer()
	if err := e.Index([]*table.Table{q, a, b}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Explore(Request{Mode: ModePopulate, Query: q, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	foundCoverage := false
	for _, r := range res {
		if r.Table == "b" && r.Via == "coverage" {
			foundCoverage = true
		}
	}
	if !foundCoverage {
		t.Errorf("coverage extension missing: %+v", res)
	}
}

func TestAddIndexesIncrementally(t *testing.T) {
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 12, JoinGroups: 3, RowsPerTable: 80,
		ExtraCols: 1, KeyVocab: 120, KeySample: 70, NoiseRate: 0.01, Seed: 23,
	})
	e := NewExplorer()
	// Index everything except the last table, then add it incrementally.
	last := c.Tables[len(c.Tables)-1]
	if err := e.Index(c.Tables[:len(c.Tables)-1]); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(last); err != nil {
		t.Fatal(err)
	}
	if got := len(indexed(e, c.Tables)); got != len(c.Tables) {
		t.Fatalf("indexed %d tables, want %d", got, len(c.Tables))
	}
	// The added table is discoverable both as a query and as a result.
	res, err := e.Explore(Request{Mode: ModePopulate, Query: last, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results for incrementally added query table")
	}
	var partner *table.Table
	for _, tbl := range c.Tables[:len(c.Tables)-1] {
		if c.Joinable[workload.NewPair(last.Name, tbl.Name)] {
			partner = tbl
			break
		}
	}
	if partner == nil {
		t.Fatal("corpus has no joinable partner for the last table")
	}
	res, err = e.Explore(Request{Mode: ModePopulate, Query: partner, K: len(c.Tables)})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Table == last.Name {
			found = true
		}
	}
	if !found {
		t.Errorf("added table %s not discoverable from %s: %+v", last.Name, partner.Name, res)
	}
}

func TestAddSkipsAlreadyIndexedTables(t *testing.T) {
	a, _ := table.ParseCSV("a", "k\nv1\nv2\n")
	e := NewExplorer()
	if err := e.Index([]*table.Table{a}); err != nil {
		t.Fatal(err)
	}
	// Re-adding must not double-index (a retried pass hits this path).
	if err := e.Add(a); err != nil {
		t.Fatal(err)
	}
	if got := indexed(e, []*table.Table{a}); len(got) != 1 {
		t.Errorf("indexed after duplicate add = %v", got)
	}
}

func TestAddOnEmptyExplorerIndexes(t *testing.T) {
	a, _ := table.ParseCSV("a", "k\nv1\nv2\n")
	e := NewExplorer()
	if err := e.Add(a); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Explore(Request{Mode: ModePopulate, Query: a, K: 1}); err != nil {
		t.Errorf("explore after bare Add = %v", err)
	}
}

// TestConcurrentAddAndExplore exercises the shared/exclusive locking:
// exploration keeps answering while tables stream in.
func TestConcurrentAddAndExplore(t *testing.T) {
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 20, JoinGroups: 4, RowsPerTable: 40,
		ExtraCols: 1, KeyVocab: 100, KeySample: 40, Seed: 7,
	})
	e := NewExplorer()
	if err := e.Index(c.Tables[:4]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for _, tbl := range c.Tables[4:] {
			if err := e.Add(tbl); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	q := c.Tables[0]
	for i := 0; i < 50; i++ {
		if _, err := e.Explore(Request{Mode: ModePopulate, Query: q, K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := len(indexed(e, c.Tables)); got != len(c.Tables) {
		t.Errorf("indexed %d tables, want %d", got, len(c.Tables))
	}
}

// Readers explore in every mode while a writer adds tables one at a
// time and removes and re-adds some. Add profiles D3L columns holding
// only the writer lock, beside the readers, so this must stay race-free
// (run with -race; CI runs it repeatedly), and the indexes it leaves
// must answer exactly as ones built by the same calls with no reader.
func TestConcurrentExploreDuringAddAndRemove(t *testing.T) {
	c := workload.GenerateCorpus(workload.CorpusSpec{
		NumTables: 16, JoinGroups: 4, RowsPerTable: 30,
		ExtraCols: 1, KeyVocab: 80, KeySample: 25, Seed: 11,
	})
	build := func(e *Explorer) error {
		if err := e.Index(c.Tables[:4]); err != nil {
			return err
		}
		var removed []*table.Table
		for i, tbl := range c.Tables[4:] {
			if err := e.Add(tbl); err != nil {
				return err
			}
			if i%3 == 2 {
				e.Remove(c.Tables[i].Name)
				removed = append(removed, c.Tables[i])
			}
		}
		return e.Add(removed...)
	}
	requests := func(q *table.Table) []Request {
		return []Request{
			{Mode: ModeJoinColumn, Query: q, Column: c.KeyColumn[q.Name], K: 4},
			{Mode: ModePopulate, Query: q, K: 4},
			{Mode: ModeTask, Query: q, Task: discovery.TaskAugment, K: 4},
			{Mode: ModeTask, Query: q, Task: discovery.TaskFeatures, K: 4},
			{Mode: ModeTask, Query: q, Task: discovery.TaskClean, K: 4},
		}
	}

	e := NewExplorer()
	done := make(chan struct{})
	readerErr := make(chan error, 5)
	for mode := 0; mode < 5; mode++ {
		go func(mode int) {
			var err error
			defer func() { readerErr <- err }()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				req := requests(c.Tables[(i*5+mode)%len(c.Tables)])[mode]
				if _, err = e.Explore(req); err != nil && !errors.Is(err, ErrNotIndexed) {
					return
				}
				err = nil
			}
		}(mode)
	}
	buildErr := build(e)
	close(done)
	for i := 0; i < 5; i++ {
		if err := <-readerErr; err != nil {
			t.Errorf("reader: %v", err)
		}
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}

	quiet := NewExplorer()
	if err := build(quiet); err != nil {
		t.Fatal(err)
	}
	if got, want := indexed(e, c.Tables), indexed(quiet, c.Tables); !reflect.DeepEqual(got, want) {
		t.Fatalf("tables = %v, want %v", got, want)
	}
	for _, q := range c.Tables {
		for _, req := range requests(q) {
			got, err := e.Explore(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := quiet.Explore(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s mode %d task %d: %v, built without readers %v", q.Name, req.Mode, req.Task, got, want)
			}
		}
	}
}

func TestRemoveDropsTableFromEveryMode(t *testing.T) {
	e, c := indexedExplorer(t)
	victim := c.Tables[1].Name
	e.Remove(victim)
	got := indexed(e, c.Tables)
	if len(got) != len(c.Tables)-1 {
		t.Errorf("indexed %d tables, want %d", len(got), len(c.Tables)-1)
	}
	for _, name := range got {
		if name == victim {
			t.Fatal("removed table still listed")
		}
	}
	q := c.Tables[0]
	reqs := []Request{
		{Mode: ModeJoinColumn, Query: q, Column: c.KeyColumn[q.Name], K: len(c.Tables)},
		{Mode: ModePopulate, Query: q, K: len(c.Tables)},
		{Mode: ModeTask, Query: q, Task: discovery.TaskAugment, K: len(c.Tables)},
	}
	for _, req := range reqs {
		res, err := e.Explore(req)
		if err != nil {
			t.Fatalf("mode %v: %v", req.Mode, err)
		}
		for _, r := range res {
			if r.Table == victim {
				t.Errorf("mode %v still returns removed table", req.Mode)
			}
		}
	}
	// Removing an unknown table is a no-op, not a panic.
	e.Remove("no-such-table")
	// Removing from a never-indexed explorer is safe too.
	NewExplorer().Remove("x")
}

// The explorer keeps no indexed table: its indexes read one column
// catalog, so once the caller drops the tables it indexed and added,
// they are collected while the explorer stays live, and it still
// answers every mode.
func TestExplorerPinsNoTable(t *testing.T) {
	spec := workload.CorpusSpec{
		NumTables: 12, JoinGroups: 3, RowsPerTable: 60,
		ExtraCols: 1, KeyVocab: 100, KeySample: 50, Seed: 31,
	}
	var collected atomic.Int32
	build := func() (*Explorer, int) {
		c := workload.GenerateCorpus(spec)
		for _, tb := range c.Tables {
			runtime.SetFinalizer(tb, func(*table.Table) { collected.Add(1) })
		}
		e := NewExplorer()
		if err := e.Index(c.Tables[:8]); err != nil {
			t.Fatal(err)
		}
		if err := e.Add(c.Tables[8:]...); err != nil {
			t.Fatal(err)
		}
		return e, len(c.Tables)
	}
	e, n := build()
	// Finalizers run on their own goroutine after the collection that
	// finds their object unreachable.
	for i := 0; i < 50 && int(collected.Load()) < n; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := int(collected.Load()); got != n {
		t.Fatalf("%d of %d indexed tables collected while the explorer is live: it pins the rest", got, n)
	}
	c := workload.GenerateCorpus(spec)
	if got := len(indexed(e, c.Tables)); got != n {
		t.Fatalf("indexed %d tables, want %d", got, n)
	}
	q := c.Tables[0]
	for _, req := range []Request{
		{Mode: ModeJoinColumn, Query: q, Column: c.KeyColumn[q.Name], K: 3},
		{Mode: ModePopulate, Query: q, K: 3},
		{Mode: ModeTask, Query: q, Task: discovery.TaskAugment, K: 3},
	} {
		res, err := e.Explore(req)
		if err != nil {
			t.Fatalf("mode %d: %v", req.Mode, err)
		}
		if len(res) == 0 {
			t.Errorf("mode %d of %s answers nothing", req.Mode, q.Name)
		}
		for _, r := range res {
			if r.Table == q.Name {
				t.Errorf("mode %d of %s answers the query itself", req.Mode, q.Name)
			}
		}
	}
}

// One Explorer.Add of a fresh table into a 200-table explorer (the
// default corpus spec): 2 026 allocations (Go 1.24). Each column's
// distinct values are listed and interned once, into the catalog all
// three indexes read, and the embedding keeps every token's sums, so a
// Stage copies the touched tokens' sums into one slab and computes
// their vectors into scratch. With a vector allocated and memoised per
// touched token it took 2 848; with a dictionary per index as well,
// JOSIE and Juneau listing and interning every column again, 2 881.
func TestExplorerAddAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const base, runs = 200, 10
	spec := workload.DefaultSpec()
	spec.NumTables = base + runs + 1
	c := workload.GenerateCorpus(spec)
	e := NewExplorer()
	if err := e.Index(c.Tables[:base]); err != nil {
		t.Fatal(err)
	}
	fresh := c.Tables[base:]
	n := testing.AllocsPerRun(runs, func() {
		if err := e.Add(fresh[0]); err != nil {
			t.Fatal(err)
		}
		fresh = fresh[1:]
	})
	if n > 2168 {
		t.Errorf("Explorer.Add of one table into %d: %v allocations, want <= 2168", base, n)
	}
}

// indexed returns the names of the tables the explorer's catalog
// holds, in the order given.
func indexed(e *Explorer, tables []*table.Table) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for _, t := range tables {
		if e.cat.Has(t.Name) {
			out = append(out, t.Name)
		}
	}
	return out
}

// TestExplorerIndexSameAtAnyWidth: Index profiles the tables on a pool
// as wide as GOMAXPROCS and builds the catalog and JOSIE beside it, yet
// answers as the one-lane build does. Over three seeded corpora, an
// explorer indexed at GOMAXPROCS 1 and one indexed at 4 answer every
// mode, and D3L's, JOSIE's and Juneau's RelatedTables, bit for bit, for
// indexed query tables and for two the explorer never indexed, and
// keep the same embedding sums.
func TestExplorerIndexSameAtAnyWidth(t *testing.T) {
	tasks := []discovery.SearchTask{discovery.TaskAugment, discovery.TaskFeatures, discovery.TaskClean}
	for seed := int64(1); seed <= 3; seed++ {
		spec := workload.DefaultSpec()
		spec.NumTables, spec.Seed = 50, seed
		c := workload.GenerateCorpus(spec)
		corpus := c.Tables[:len(c.Tables)-2]
		// answers renders every answer the explorer gives, scores as
		// their bits, with the embedding's sum bytes.
		answers := func(procs int) []string {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			e := NewExplorer()
			if err := e.Index(corpus); err != nil {
				t.Fatal(err)
			}
			out := []string{fmt.Sprint("token sums ", e.TokenSumBytes())}
			k := len(c.Tables)
			add := func(what string, rs []Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("seed %d, %s: %v", seed, what, err)
				}
				line := what + ":"
				for _, r := range rs {
					line += fmt.Sprintf(" %s=%x/%s", r.Table, math.Float64bits(r.Score), r.Via)
				}
				out = append(out, line)
			}
			ranked := func(what string, ts []metamodel.TableScore) {
				add(what, results(nil, ts, ""), nil)
			}
			for _, q := range c.Tables {
				rs, err := e.Explore(Request{Mode: ModePopulate, Query: q, K: k})
				add(q.Name+" populate", rs, err)
				for _, task := range tasks {
					rs, err := e.Explore(Request{Mode: ModeTask, Query: q, Task: task, K: k})
					add(fmt.Sprintf("%s task %d", q.Name, task), rs, err)
				}
				for _, col := range q.Columns {
					rs, err := e.Explore(Request{Mode: ModeJoinColumn, Query: q, Column: col.Name, K: k})
					add(q.Name+" join "+col.Name, rs, err)
				}
				ranked(q.Name+" D3L", e.d3l.RelatedTables(q, k))
				ranked(q.Name+" JOSIE", e.josie.RelatedTables(q, k))
				ranked(q.Name+" Juneau", e.juneau.RelatedTables(q, k))
			}
			return out
		}
		one, four := answers(1), answers(4)
		if len(one) != len(four) {
			t.Fatalf("seed %d: %d answers at width 1, %d at width 4", seed, len(one), len(four))
		}
		for i := range one {
			if one[i] != four[i] {
				t.Errorf("seed %d: width 1 %q, width 4 %q", seed, one[i], four[i])
			}
		}
	}
}
