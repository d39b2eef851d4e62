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
// lowercase because the lake's WAL records carry events;
// encoding/json matches keys case-insensitively, so events written
// with the field names as keys still decode.
type Event struct {
	Seq    int       `json:"seq"`
	Kind   EventKind `json:"kind"`
	Entity string    `json:"entity,omitempty"`
	// Entities is set instead of Entity on an EventQuery that read more
	// than one entity: one statement is one event. AccessLog expands it
	// into one entry per entity.
	Entities []string `json:"entities,omitempty"`
	Activity string   `json:"activity,omitempty"`
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
	return t.add(Event{Kind: kind, Entity: entity, Activity: activity, System: system, User: user})
}

// add stamps ev with the next sequence number and the clock, and
// appends it.
func (t *Tracker) add(ev Event) Event {
	t.seq++
	ev.Seq, ev.At = t.seq, t.clock()
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

// Ingest records the arrival of a new entity from a source system and
// returns the event, numbered and stamped, for the caller to persist.
func (t *Tracker) Ingest(entity, system, user string) Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureEntity(entity)
	return t.record(EventIngest, entity, "", system, user)
}

// Discard records the removal of an entity from the lake (eviction) and
// returns the event. The graph node stays — lineage outlives the data,
// so downstream entities keep their ancestry — but the audit trail
// shows who dropped it and when.
func (t *Tracker) Discard(entity, system, user string) Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureEntity(entity)
	return t.record(EventDiscard, entity, "", system, user)
}

// Derive records that an activity consumed the input entities and
// produced the output entity — the core lineage edge; the provenance
// graph gains input->activity->output edges like GOODS's provenance
// graphs. It returns the events in capture order: one read per input,
// then the write and the derive.
func (t *Tracker) Derive(activity, system, user string, inputs []string, output string) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureActivity(activity)
	t.ensureEntity(output)
	// AddEdge fails only on a missing node, and every node is ensured.
	evs := make([]Event, 0, len(inputs)+2)
	for _, in := range inputs {
		t.ensureEntity(in)
		_, _ = t.g.AddEdge("e:"+in, "a:"+activity, "usedBy", nil)
		evs = append(evs, t.record(EventRead, in, activity, system, user))
	}
	_, _ = t.g.AddEdge("a:"+activity, "e:"+output, "generated", nil)
	evs = append(evs, t.record(EventWrite, output, activity, system, user))
	return append(evs, t.record(EventDerive, output, activity, system, user))
}

// Query records one statement's read-only access to entities (who
// queried them) as a single event and returns it. Entities the tracker
// has never seen are left out and reported in the error; when none is
// left, nothing is recorded and the zero Event is returned. An entity
// named twice is recorded twice.
func (t *Tracker) Query(entities []string, system, user string) (Event, error) {
	var known []string
	var err error
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range entities {
		if t.g.HasNode("e:" + e) {
			known = append(known, e)
		} else if err == nil {
			err = fmt.Errorf("%w: %s", ErrUnknownEntity, e)
		}
	}
	if len(known) == 0 {
		return Event{}, err
	}
	ev := Event{Kind: EventQuery, Entity: known[0], System: system, User: user}
	if len(known) > 1 {
		ev.Entity, ev.Entities = "", known
	}
	return t.add(ev), err
}

// Retract takes back the event numbered seq, which a write captured but
// could not persist. The graph nodes and edges it implied stay, as a
// discarded entity's do.
func (t *Tracker) Retract(seq int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.events) - 1; i >= 0; i-- {
		if t.events[i].Seq == seq {
			t.events = append(t.events[:i], t.events[i+1:]...)
			return
		}
	}
}

// Inject replays one persisted event into the tracker: the event is
// appended verbatim (its Seq and At are preserved, the sequence counter
// advanced past it) and the graph structure it implies is rebuilt —
// every entity it names (Entity, or each of a grouped query's
// Entities) is registered, EventRead adds the entity->activity edge,
// EventWrite the activity->entity edge. EventDerive carries no edge of
// its own (its Write twin already did), so injecting a full replayed
// log never duplicates edges.
func (t *Tracker) Inject(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(ev.Entities) == 0 {
		t.ensureEntity(ev.Entity)
	}
	for _, e := range ev.Entities {
		t.ensureEntity(e)
	}
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
// "who queried this entity" audit. A statement that read several
// entities contributes one entry per mention of this one, each with
// Entity set and Entities empty, all sharing the statement's Seq.
func (t *Tracker) AccessLog(entity string) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, ev := range t.events {
		if ev.Entity == entity {
			out = append(out, ev)
		}
		for _, e := range ev.Entities {
			if e == entity {
				one := ev
				one.Entity, one.Entities = e, nil
				out = append(out, one)
			}
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
