// Package provenance implements the data-provenance function of the
// maintenance tier (Sec. 6.7): a provenance graph over entities
// (datasets) and activities (jobs/queries), event capture across
// heterogeneous processing systems normalized into one model
// (Suriarachchi & Plale's integrated provenance), DAG-based lineage
// queries (GOODS, CoreDB), and per-entity audit trails answering "who
// queried this entity" (CoreDB's temporal provenance).
//
// Events are built first and recorded second: the constructors below
// and Tracker.QueryEvent build an event without touching the tracker,
// and Inject records it, so a caller that logs its events durably
// records only what it logged.
package provenance

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
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

// IngestEvent is the arrival of a new entity from a source system.
func IngestEvent(entity, system, user string) Event {
	return Event{Kind: EventIngest, Entity: entity, System: system, User: user}
}

// DiscardEvent is the removal of an entity from the lake (eviction).
// Recording it keeps the entity's lineage — downstream entities keep
// their ancestry — and the audit trail shows who dropped it and when.
func DiscardEvent(entity, system, user string) Event {
	return Event{Kind: EventDiscard, Entity: entity, System: system, User: user}
}

// DeriveEvents are an activity consuming the input entities and
// producing the output entity, in capture order: one read per input,
// then the write and the derive. Recorded, the reads and the write are
// the lineage edges input->activity->output, like GOODS's provenance
// graphs.
func DeriveEvents(activity, system, user string, inputs []string, output string) []Event {
	evs := make([]Event, 0, len(inputs)+2)
	for _, in := range inputs {
		evs = append(evs, Event{Kind: EventRead, Entity: in, Activity: activity, System: system, User: user})
	}
	return append(evs,
		Event{Kind: EventWrite, Entity: output, Activity: activity, System: system, User: user},
		Event{Kind: EventDerive, Entity: output, Activity: activity, System: system, User: user})
}

// Tracker is the integrated provenance store: the normalized event log
// and the lineage graph its events imply.
type Tracker struct {
	mu     sync.Mutex
	events []Event
	// entities holds every entity an event named. inputs maps an
	// activity to the entities it read, writers an entity to the
	// activities that wrote it: the graph's in-edges, all Upstream walks.
	entities map[string]bool
	inputs   map[string][]string
	writers  map[string][]string
	clock    func() time.Time
	seq      int
}

// NewTracker creates a tracker; clock may be nil (wall clock).
func NewTracker(clock func() time.Time) *Tracker {
	if clock == nil {
		clock = time.Now
	}
	return &Tracker{
		entities: map[string]bool{},
		inputs:   map[string][]string{},
		writers:  map[string][]string{},
		clock:    clock,
	}
}

// QueryEvent builds the event of one statement's read-only access to
// entities (who queried them), without recording it. Entities the
// tracker has never seen are left out and reported in the error; when
// none is left, the zero Event is returned. An entity named twice is
// named twice in the event.
func (t *Tracker) QueryEvent(entities []string, system, user string) (Event, error) {
	var known []string
	var err error
	t.mu.Lock()
	for _, e := range entities {
		if t.entities[e] {
			known = append(known, e)
		} else if err == nil {
			err = fmt.Errorf("%w: %s", ErrUnknownEntity, e)
		}
	}
	t.mu.Unlock()
	if len(known) == 0 {
		return Event{}, err
	}
	ev := Event{Kind: EventQuery, Entity: known[0], System: system, User: user}
	if len(known) > 1 {
		ev.Entity, ev.Entities = "", known
	}
	return ev, err
}

// LastSeq returns the sequence number of the last recorded event; the
// next one Inject numbers takes LastSeq()+1.
func (t *Tracker) LastSeq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Inject records events in order. An event with a Seq keeps it and its
// At (a replayed or logged event), and the sequence counter advances
// past it; an event without one is numbered next and dated by the
// tracker's clock. Each entity an event names (Entity, or each of a
// grouped query's Entities) becomes known, an EventRead adds the
// entity->activity edge and an EventWrite the activity->entity edge.
// EventDerive carries no edge of its own (its Write twin already did).
func (t *Tracker) Inject(evs ...Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range evs {
		if ev.Seq == 0 {
			ev.Seq, ev.At = t.seq+1, t.clock()
		}
		if len(ev.Entities) == 0 {
			t.entities[ev.Entity] = true
		}
		for _, e := range ev.Entities {
			t.entities[e] = true
		}
		switch ev.Kind {
		case EventRead:
			t.inputs[ev.Activity] = append(t.inputs[ev.Activity], ev.Entity)
		case EventWrite:
			t.writers[ev.Entity] = append(t.writers[ev.Entity], ev.Activity)
		}
		t.events = append(t.events, ev)
		if ev.Seq > t.seq {
			t.seq = ev.Seq
		}
	}
}

// Upstream returns the entities the given entity transitively derives
// from, sorted — the lineage question "where did this come from".
func (t *Tracker) Upstream(entity string) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.entities[entity] {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEntity, entity)
	}
	seen := map[string]bool{entity: true}
	var out []string
	for queue := []string{entity}; len(queue) > 0; queue = queue[1:] {
		for _, act := range t.writers[queue[0]] {
			for _, in := range t.inputs[act] {
				if !seen[in] {
					seen[in] = true
					out = append(out, in)
					queue = append(queue, in)
				}
			}
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
