package maintain

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Plan is PlanAt at the current force snapshot.
func (p *Planner) Plan(current []string) Plan {
	return p.PlanAt(p.Snapshot(), current)
}

func TestPlannerFirstPassIsFull(t *testing.T) {
	p := NewPlanner()
	plan := p.Plan([]string{"a", "b"})
	if !plan.Full || plan.Reason != "first-pass" {
		t.Fatalf("first plan = %+v, want full first-pass", plan)
	}
	p.Commit(plan, []string{"a", "b"})
	if got := p.CoveredCount(); got != 2 {
		t.Errorf("covered = %d", got)
	}
}

func TestPlannerIncrementalAdditions(t *testing.T) {
	p := NewPlanner()
	p.Commit(p.Plan([]string{"a", "b"}), []string{"a", "b"})
	plan := p.Plan([]string{"a", "b", "c", "d"})
	if plan.Full {
		t.Fatalf("additions-only plan = %+v, want incremental", plan)
	}
	if want := []string{"c", "d"}; !reflect.DeepEqual(plan.New, want) {
		t.Errorf("plan.New = %v, want %v", plan.New, want)
	}
	p.Commit(plan, []string{"a", "b", "c", "d"})
	// Nothing new: an empty incremental plan.
	plan = p.Plan([]string{"a", "b", "c", "d"})
	if plan.Full || len(plan.New) != 0 {
		t.Errorf("steady-state plan = %+v, want empty incremental", plan)
	}
}

func TestPlannerEvictionForcesFull(t *testing.T) {
	p := NewPlanner()
	p.Commit(p.Plan([]string{"a", "b"}), []string{"a", "b"})
	plan := p.Plan([]string{"a", "c"})
	if !plan.Full || plan.Reason != "eviction" {
		t.Fatalf("eviction plan = %+v, want full", plan)
	}
	if want := []string{"b"}; !reflect.DeepEqual(plan.Evicted, want) {
		t.Errorf("evicted = %v, want %v", plan.Evicted, want)
	}
	p.Commit(plan, []string{"a", "c"})
	if plan := p.Plan([]string{"a", "c"}); plan.Full {
		t.Errorf("post-eviction plan = %+v, want incremental", plan)
	}
}

func TestPlannerForceFullClearsAfterCommit(t *testing.T) {
	p := NewPlanner()
	p.Commit(p.Plan([]string{"a"}), []string{"a"})
	p.ForceFull("derive")
	plan := p.Plan([]string{"a", "b"})
	if !plan.Full || plan.Reason != "derive" {
		t.Fatalf("forced plan = %+v", plan)
	}
	// An uncommitted plan keeps the force in place (failed pass).
	if again := p.Plan([]string{"a", "b"}); !again.Full {
		t.Errorf("force dropped without commit: %+v", again)
	}
	p.Commit(plan, []string{"a", "b"})
	if after := p.Plan([]string{"a", "b"}); after.Full {
		t.Errorf("force survived commit: %+v", after)
	}
}

func TestBackoffDelayDoublesAndCaps(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := backoffDelay(base, max, i+1); got != w {
			t.Errorf("backoffDelay(n=%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestJitteredStaysInBand(t *testing.T) {
	d := time.Second
	for _, r := range []float64{0, 0.25, 0.5, 0.999} {
		got := jittered(d, 0.2, func() float64 { return r })
		if got < 800*time.Millisecond || got > 1200*time.Millisecond {
			t.Errorf("jittered(rnd=%v) = %v outside ±20%%", r, got)
		}
	}
	if got := jittered(d, 0, nil); got != d {
		t.Errorf("zero jitter changed delay: %v", got)
	}
}

// fakeTarget scripts staleness and pass outcomes for scheduler tests.
type fakeTarget struct {
	mu sync.Mutex
	// staleFor is how many completed passes it takes until Stale goes
	// false — staleFor=2 simulates an ingest racing the first pass.
	staleFor int
	failLeft int
	passes   int
	started  chan struct{} // closed when the first pass begins
	block    chan struct{} // when non-nil, Pass waits for close or ctx
}

func (f *fakeTarget) Stale() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.passes < f.staleFor
}

func (f *fakeTarget) Pass(ctx context.Context) (PassStats, error) {
	f.mu.Lock()
	if f.started != nil {
		select {
		case <-f.started:
		default:
			close(f.started)
		}
	}
	block := f.block
	f.mu.Unlock()
	if block != nil {
		select {
		case <-block:
		case <-ctx.Done():
			return PassStats{}, ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failLeft > 0 {
		f.failLeft--
		return PassStats{}, errors.New("injected pass failure")
	}
	f.passes++
	return PassStats{Mode: "incremental", Datasets: 1}, nil
}

func (f *fakeTarget) passCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.passes
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testConfig() Config {
	return Config{Interval: 2 * time.Millisecond, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}
}

func TestSchedulerRunsPassWhenStale(t *testing.T) {
	f := &fakeTarget{staleFor: 1}
	s := NewScheduler(f, testConfig())
	s.Start()
	defer s.Stop()
	waitFor(t, "first pass", func() bool { return f.passCount() >= 1 })
	if f.Stale() {
		t.Error("target still stale after pass")
	}
	if s.NextRun().IsZero() {
		t.Error("NextRun unset after pass")
	}
}

func TestSchedulerIngestDuringPassSchedulesAnotherPass(t *testing.T) {
	// staleFor=2: the first completed pass leaves the target stale (an
	// ingest raced it), so the scheduler must run a second pass rather
	// than losing the update.
	f := &fakeTarget{staleFor: 2}
	s := NewScheduler(f, testConfig())
	s.Start()
	defer s.Stop()
	waitFor(t, "second pass", func() bool { return f.passCount() >= 2 })
	if f.Stale() {
		t.Error("target stale after catch-up pass")
	}
}

func TestSchedulerRetriesFailingPassWithBackoff(t *testing.T) {
	f := &fakeTarget{staleFor: 1, failLeft: 3}
	s := NewScheduler(f, testConfig())
	s.Start()
	defer s.Stop()
	// Three failures must not stop the loop: the pass eventually lands.
	waitFor(t, "pass after retries", func() bool { return f.passCount() >= 1 })
	s.mu.Lock()
	fails := s.consecFails
	s.mu.Unlock()
	if fails != 0 {
		t.Errorf("consecFails = %d after success, want 0 (backoff reset)", fails)
	}
}

func TestSchedulerStopDrainsInFlightPass(t *testing.T) {
	f := &fakeTarget{staleFor: 1, started: make(chan struct{}), block: make(chan struct{})}
	s := NewScheduler(f, Config{Interval: time.Millisecond})
	s.Start()
	<-f.started // a pass is now in flight and blocked
	done := make(chan struct{})
	go func() {
		s.Stop() // must cancel the pass's ctx and wait for the drain
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not drain the in-flight pass")
	}
	if got := f.passCount(); got != 0 {
		t.Errorf("cancelled pass counted as completed: %d", got)
	}
	s.Stop() // idempotent
}

func TestSchedulerStopWithoutStart(t *testing.T) {
	s := NewScheduler(&fakeTarget{}, Config{})
	s.Stop() // no-op, must not block or panic
}

func TestSchedulerTriggerWakesEarly(t *testing.T) {
	f := &fakeTarget{staleFor: 1}
	// A long interval: without Trigger the first check is an hour away.
	s := NewScheduler(f, Config{Interval: time.Hour})
	s.Start()
	defer s.Stop()
	s.Trigger()
	waitFor(t, "triggered pass", func() bool { return f.passCount() >= 1 })
}

func TestPlannerForceDuringPassSurvivesCommit(t *testing.T) {
	p := NewPlanner()
	plan := p.Plan([]string{"a"}) // pass begins from this snapshot
	// A derive lands while the pass is running: the forced rebuild must
	// not be erased by the pass's commit, whose listing predates it.
	p.ForceFull("derive")
	p.Commit(plan, []string{"a"})
	next := p.Plan([]string{"a", "derived"})
	if !next.Full || next.Reason != "derive" {
		t.Fatalf("plan after mid-pass derive = %+v, want full/derive", next)
	}
	p.Commit(next, []string{"a", "derived"})
	if after := p.Plan([]string{"a", "derived"}); after.Full {
		t.Errorf("force survived its own commit: %+v", after)
	}
}

func TestPlannerFullPlanCarriesForceBookkeeping(t *testing.T) {
	p := NewPlanner()
	p.Commit(p.Plan([]string{"a"}), []string{"a"})
	p.ForceFull("derive")
	// An explicitly requested full pass observes the pending force and
	// clears it on commit.
	plan := p.FullPlanAt(p.Snapshot(), "requested", []string{"a", "derived"})
	p.Commit(plan, []string{"a", "derived"})
	if after := p.Plan([]string{"a", "derived"}); after.Full {
		t.Errorf("requested full did not clear observed force: %+v", after)
	}
}

func TestPlannerForceDuringListingSurvivesCommit(t *testing.T) {
	p := NewPlanner()
	p.Commit(p.Plan([]string{"a"}), []string{"a"})
	// The pass snapshots the force counter, then lists datasets; a
	// derive lands in between, so its table is missing from the listing
	// and the forced rebuild must outlive this pass's commit.
	seq := p.Snapshot()
	p.ForceFull("derive")
	plan := p.PlanAt(seq, []string{"a"})
	if !plan.Full || plan.Reason != "derive" {
		t.Fatalf("racing plan = %+v", plan)
	}
	p.Commit(plan, []string{"a"})
	next := p.Plan([]string{"a", "derived"})
	if !next.Full || next.Reason != "derive" {
		t.Fatalf("plan after listing-race derive = %+v, want full/derive", next)
	}
}

func TestPlannerRestoreResumesIncrementally(t *testing.T) {
	p := NewPlanner()
	p.Restore([]string{"a", "b"}, true)
	if want := []string{"a", "b"}; !reflect.DeepEqual(p.Covered(), want) {
		t.Fatalf("Covered = %v, want %v", p.Covered(), want)
	}
	plan := p.Plan([]string{"a", "b", "c"})
	if plan.Full {
		t.Fatalf("post-restore plan = %+v, want incremental", plan)
	}
	if want := []string{"c"}; !reflect.DeepEqual(plan.New, want) {
		t.Errorf("plan.New = %v, want %v", plan.New, want)
	}
}

func TestPlannerRestoreClearsPendingForce(t *testing.T) {
	p := NewPlanner()
	p.ForceFull("derive")
	p.Restore([]string{"a"}, true)
	if plan := p.Plan([]string{"a"}); plan.Full {
		t.Errorf("plan after restore = %+v, want incremental", plan)
	}
}

func TestPlannerRestoreUnprimedStaysFirstPass(t *testing.T) {
	p := NewPlanner()
	p.Restore(nil, false)
	if plan := p.Plan([]string{"a"}); !plan.Full || plan.Reason != "first-pass" {
		t.Errorf("unprimed plan = %+v, want full first-pass", plan)
	}
}

func TestPlannerEvictDropsCoverageWithoutFull(t *testing.T) {
	p := NewPlanner()
	p.Commit(p.Plan([]string{"a", "b"}), []string{"a", "b"})
	p.Evict("b")
	// The dataset is gone from both the listing and coverage: the next
	// plan must not misread that as an untracked eviction.
	plan := p.Plan([]string{"a"})
	if plan.Full || len(plan.New) != 0 {
		t.Fatalf("post-Evict plan = %+v, want empty incremental", plan)
	}
	if got := p.CoveredCount(); got != 1 {
		t.Errorf("covered = %d, want 1", got)
	}
}
