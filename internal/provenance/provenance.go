// Package provenance implements the data-provenance function of the
// maintenance tier (Sec. 6.7): a provenance graph over entities
// (datasets) and activities (jobs/queries), event capture across
// heterogeneous processing systems normalized into one model
// (Suriarachchi & Plale's integrated provenance), DAG-based lineage
// queries (GOODS, CoreDB), and per-entity audit trails answering "who
// queried this entity" (CoreDB's temporal provenance).
package provenance

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"golake/internal/storage/graphstore"
)

// EventKind classifies captured provenance events.
type EventKind string

// The normalized event kinds; heterogeneous engines (Hadoop, Storm,
// Spark in the paper's use case) map their native events onto these.
const (
	EventIngest  EventKind = "ingest"
	EventRead    EventKind = "read"
	EventWrite   EventKind = "write"
	EventDerive  EventKind = "derive"
	EventQuery   EventKind = "query"
	EventDiscard EventKind = "discard"
)

// Event is one captured provenance event. Its JSON keys are short and
// lowercase because the lake writes one audit record per event;
// encoding/json matches keys case-insensitively, so events written
// with the field names as keys still decode.
type Event struct {
	Seq      int       `json:"seq"`
	Kind     EventKind `json:"kind"`
	Entity   string    `json:"entity"`
	Activity string    `json:"activity,omitempty"`
	// System identifies the engine that emitted the event (the
	// cross-system dimension of integrated provenance).
	System string    `json:"system,omitempty"`
	User   string    `json:"user,omitempty"`
	At     time.Time `json:"at"`
}

// ErrUnknownEntity is returned by queries on unrecorded entities.
var ErrUnknownEntity = errors.New("provenance: unknown entity")

// Tracker is the integrated provenance store: an activity-entity graph
// plus the normalized event log.
type Tracker struct {
	mu     sync.Mutex
	g      *graphstore.Graph
	events []Event
	clock  func() time.Time
	seq    int

	hookMu sync.RWMutex
	hook   func(Event)
}

// SetHook installs a callback fired once per newly captured event, in
// capture order. The lake's persistence layer uses it to append audit
// records to the WAL. The hook runs after the tracker's own lock is
// released, so it may call back into Tracker methods; it must not block
// for long (it is on the Ingest/Derive/Query path).
func (t *Tracker) SetHook(hook func(Event)) {
	t.hookMu.Lock()
	defer t.hookMu.Unlock()
	t.hook = hook
}

// fire delivers captured events to the hook, outside t.mu.
func (t *Tracker) fire(evs []Event) {
	if len(evs) == 0 {
		return
	}
	t.hookMu.RLock()
	hook := t.hook
	t.hookMu.RUnlock()
	if hook == nil {
		return
	}
	for _, ev := range evs {
		hook(ev)
	}
}

// NewTracker creates a tracker; clock may be nil (wall clock).
func NewTracker(clock func() time.Time) *Tracker {
	if clock == nil {
		clock = time.Now
	}
	return &Tracker{g: graphstore.New(), clock: clock}
}

// record appends a normalized event.
func (t *Tracker) record(kind EventKind, entity, activity, system, user string) Event {
	t.seq++
	ev := Event{Seq: t.seq, Kind: kind, Entity: entity, Activity: activity, System: system, User: user, At: t.clock()}
	t.events = append(t.events, ev)
	return ev
}

func (t *Tracker) ensureEntity(id string) {
	if !t.g.HasNode("e:" + id) {
		_ = t.g.AddNode("e:"+id, "entity", nil)
	}
}

func (t *Tracker) ensureActivity(id string) {
	if !t.g.HasNode("a:" + id) {
		_ = t.g.AddNode("a:"+id, "activity", nil)
	}
}

// Ingest records the arrival of a new entity from a source system.
func (t *Tracker) Ingest(entity, system, user string) {
	t.mu.Lock()
	t.ensureEntity(entity)
	ev := t.record(EventIngest, entity, "", system, user)
	t.mu.Unlock()
	t.fire([]Event{ev})
}

// Discard records the removal of an entity from the lake (eviction).
// The graph node stays — lineage outlives the data, so downstream
// entities keep their ancestry — but the audit trail shows who dropped
// it and when.
func (t *Tracker) Discard(entity, system, user string) {
	t.mu.Lock()
	t.ensureEntity(entity)
	ev := t.record(EventDiscard, entity, "", system, user)
	t.mu.Unlock()
	t.fire([]Event{ev})
}

// Derive records that an activity consumed the input entities and
// produced the output entity — the core lineage edge; the provenance
// graph gains input->activity->output edges like GOODS's provenance
// graphs.
func (t *Tracker) Derive(activity, system, user string, inputs []string, output string) error {
	t.mu.Lock()
	t.ensureActivity(activity)
	t.ensureEntity(output)
	var evs []Event
	for _, in := range inputs {
		t.ensureEntity(in)
		if _, err := t.g.AddEdge("e:"+in, "a:"+activity, "usedBy", nil); err != nil {
			t.mu.Unlock()
			return err
		}
		evs = append(evs, t.record(EventRead, in, activity, system, user))
	}
	if _, err := t.g.AddEdge("a:"+activity, "e:"+output, "generated", nil); err != nil {
		t.mu.Unlock()
		return err
	}
	evs = append(evs, t.record(EventWrite, output, activity, system, user))
	evs = append(evs, t.record(EventDerive, output, activity, system, user))
	t.mu.Unlock()
	t.fire(evs)
	return nil
}

// Query records a read-only access (who queried the entity).
func (t *Tracker) Query(entity, system, user string) error {
	t.mu.Lock()
	if !t.g.HasNode("e:" + entity) {
		t.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownEntity, entity)
	}
	ev := t.record(EventQuery, entity, "", system, user)
	t.mu.Unlock()
	t.fire([]Event{ev})
	return nil
}

// Inject replays one persisted event into the tracker: the event is
// appended verbatim (its Seq and At are preserved, the sequence counter
// advanced past it) and the graph structure it implies is rebuilt —
// EventRead adds the entity->activity edge, EventWrite the
// activity->entity edge. EventDerive carries no edge of its own (its
// Write twin already did), so injecting a full replayed log never
// duplicates edges. The hook is NOT fired: replay must not re-append
// what the WAL already holds.
func (t *Tracker) Inject(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureEntity(ev.Entity)
	if ev.Activity != "" {
		t.ensureActivity(ev.Activity)
	}
	switch ev.Kind {
	case EventRead:
		_, _ = t.g.AddEdge("e:"+ev.Entity, "a:"+ev.Activity, "usedBy", nil)
	case EventWrite:
		_, _ = t.g.AddEdge("a:"+ev.Activity, "e:"+ev.Entity, "generated", nil)
	}
	t.events = append(t.events, ev)
	if ev.Seq > t.seq {
		t.seq = ev.Seq
	}
}

// Upstream returns the entities the given entity transitively derives
// from, sorted — the lineage question "where did this come from".
func (t *Tracker) Upstream(entity string) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.g.HasNode("e:" + entity) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEntity, entity)
	}
	var out []string
	for _, n := range t.g.Reachable("e:"+entity, graphstore.In) {
		if len(n) > 2 && n[:2] == "e:" {
			out = append(out, n[2:])
		}
	}
	sort.Strings(out)
	return out, nil
}

// AccessLog returns the events touching an entity, in order — CoreDB's
// "who queried this entity" audit.
func (t *Tracker) AccessLog(entity string) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, ev := range t.events {
		if ev.Entity == entity {
			out = append(out, ev)
		}
	}
	return out
}

// Events returns a copy of the full normalized event log.
func (t *Tracker) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}
