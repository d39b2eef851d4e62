// Package maintain implements the always-on maintenance subsystem the
// survey's GOODS-style post-hoc cataloging systems run continuously
// (Sec. 6): an incremental maintenance planner that tracks per-dataset
// coverage, so a pass reindexes only datasets ingested since the last
// covered generation, and a background scheduler that watches the
// lake's staleness and re-runs passes automatically — with debounce,
// jittered retry backoff on failure, and clean shutdown.
//
// The package is deliberately lake-agnostic: the planner speaks in
// dataset names, the scheduler in the two-method Target interface, so
// both are unit-testable without assembling a lake and usable by any
// future index owner (e.g. a sharded catalog).
package maintain

import (
	"sort"
	"sync"
)

// Plan describes what one maintenance pass must do.
type Plan struct {
	// Full selects a from-scratch rebuild of every index; Reason says
	// why ("first-pass", "eviction", or a forced reason such as
	// "derive").
	Full   bool
	Reason string
	// New lists the datasets an incremental pass must index — the ones
	// present now but not covered by any previous pass.
	New []string
	// Evicted lists previously covered datasets that have disappeared;
	// non-empty Evicted always forces Full (indexes have no per-dataset
	// delete, so removal means rebuild).
	Evicted []string
	// forceSeq snapshots the planner's force counter at planning time,
	// so Commit can tell whether a ForceFull landed after this plan was
	// computed (a Derive racing the running pass) and must survive the
	// commit.
	forceSeq uint64
}

// Planner tracks which datasets completed maintenance passes have
// covered, and turns the current dataset listing into the cheapest
// correct plan: incremental when only additions happened, full on the
// first pass, after an eviction, or when a caller forced it.
type Planner struct {
	mu       sync.Mutex
	primed   bool // a full pass has committed at least once
	covered  map[string]bool
	force    string // non-empty: next plan is Full with this reason
	forceSeq uint64 // bumped by every ForceFull
}

// NewPlanner creates a planner with no coverage; its first plan is
// always a full pass.
func NewPlanner() *Planner {
	return &Planner{covered: map[string]bool{}}
}

// ForceFull makes the next plan a full rebuild, recording why. Used
// when an index mutation cannot be expressed as an incremental add
// (derived tables shifting corpus statistics, or recovery after a
// failed incremental pass left indexes half-updated).
func (p *Planner) ForceFull(reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.force = reason
	p.forceSeq++
}

// Snapshot returns the current force counter. Callers gathering a
// dataset listing snapshot first and pass the value to PlanAt, so a
// ForceFull that lands while they list (a Derive racing the pass) is
// never cleared by a commit whose listing predates it.
func (p *Planner) Snapshot() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.forceSeq
}

// PlanAt computes the pass plan for the current dataset listing, given
// the force Snapshot taken before the caller gathered it. It does not
// change coverage; call Commit after the pass succeeds.
func (p *Planner) PlanAt(seq uint64, current []string) Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.primed {
		return Plan{Full: true, Reason: "first-pass", New: append([]string(nil), current...), forceSeq: seq}
	}
	if p.force != "" {
		return Plan{Full: true, Reason: p.force, New: append([]string(nil), current...), forceSeq: seq}
	}
	cur := make(map[string]bool, len(current))
	var added []string
	for _, name := range current {
		cur[name] = true
		if !p.covered[name] {
			added = append(added, name)
		}
	}
	var evicted []string
	for name := range p.covered {
		if !cur[name] {
			evicted = append(evicted, name)
		}
	}
	sort.Strings(added)
	sort.Strings(evicted)
	if len(evicted) > 0 {
		return Plan{Full: true, Reason: "eviction", New: append([]string(nil), current...), Evicted: evicted, forceSeq: seq}
	}
	return Plan{New: added, forceSeq: seq}
}

// FullPlanAt returns an explicitly requested full-rebuild plan over
// the current listing (the blocking Maintain entry point), with the
// same force bookkeeping as PlanAt.
func (p *Planner) FullPlanAt(seq uint64, reason string, current []string) Plan {
	return Plan{Full: true, Reason: reason, New: append([]string(nil), current...), forceSeq: seq}
}

// Commit records a successfully executed plan: a full pass replaces
// coverage with the current listing, and an incremental pass adds its
// new datasets. A full commit clears a forced rebuild only if the
// force was already visible when the plan was computed — a ForceFull
// that landed mid-pass (Derive racing the pass) names a dataset the
// committed listing predates, so it must survive into the next plan.
func (p *Planner) Commit(plan Plan, current []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan.Full {
		p.covered = make(map[string]bool, len(current))
		for _, name := range current {
			p.covered[name] = true
		}
		p.primed = true
		if plan.forceSeq == p.forceSeq {
			p.force = ""
		}
		return
	}
	for _, name := range plan.New {
		p.covered[name] = true
	}
}

// CoveredCount returns how many datasets the completed passes cover.
func (p *Planner) CoveredCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.covered)
}

// Covered returns the covered dataset names, sorted. Persistence
// checkpoints serialize this so a reopened lake resumes incrementally.
func (p *Planner) Covered() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.covered))
	for name := range p.covered {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Restore replaces the planner's coverage with a persisted set, as if a
// pass over exactly those datasets had committed. Replay calls it after
// rebuilding indexes from a snapshot or coverage record; with primed
// set, the reopened lake's first pass plans incrementally instead of
// "first-pass" full. Any pending force is cleared — the restored
// coverage is the restored truth.
func (p *Planner) Restore(covered []string, primed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.covered = make(map[string]bool, len(covered))
	for _, name := range covered {
		p.covered[name] = true
	}
	p.primed = primed
	p.force = ""
}

// Evict drops one dataset from coverage without forcing a full rebuild.
// Callers that can delete the dataset from every index incrementally
// (Explorer.Remove and friends) use this so the disappearance is not
// misread by the next Plan as an untracked eviction.
func (p *Planner) Evict(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.covered, name)
}
