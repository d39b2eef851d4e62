package provenance

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func newTracker() *Tracker {
	t0 := time.Date(2026, 6, 12, 10, 0, 0, 0, time.UTC)
	n := 0
	return NewTracker(func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	})
}

// buildPipeline models the paper's use case: tweets collected by Flume,
// processed by Hadoop and Spark jobs.
func buildPipeline(t *testing.T) *Tracker {
	t.Helper()
	tr := newTracker()
	tr.Ingest("tweets_raw", "flume", "collector")
	tr.Derive("count_hashtags", "hadoop", "analyst", []string{"tweets_raw"}, "hashtag_counts")
	tr.Derive("aggregate_by_cat", "spark", "analyst", []string{"hashtag_counts"}, "category_summary")
	return tr
}

func TestUpstream(t *testing.T) {
	tr := buildPipeline(t)
	up, err := tr.Upstream("category_summary")
	if err != nil {
		t.Fatal(err)
	}
	if len(up) != 2 || up[0] != "hashtag_counts" || up[1] != "tweets_raw" {
		t.Errorf("Upstream = %v", up)
	}
	if _, err := tr.Upstream("ghost"); !errors.Is(err, ErrUnknownEntity) {
		t.Errorf("Upstream ghost = %v", err)
	}
}

func TestAccessLogAndQuery(t *testing.T) {
	tr := buildPipeline(t)
	if _, err := tr.Query([]string{"category_summary"}, "dashboard", "ceo"); err != nil {
		t.Fatal(err)
	}
	if ev, err := tr.Query([]string{"ghost"}, "dashboard", "ceo"); !errors.Is(err, ErrUnknownEntity) || ev.Seq != 0 {
		t.Errorf("Query ghost = %+v, %v", ev, err)
	}
	log := tr.AccessLog("category_summary")
	// write + derive + query = 3 events.
	if len(log) != 3 {
		t.Fatalf("AccessLog = %+v", log)
	}
	last := log[len(log)-1]
	if last.Kind != EventQuery || last.User != "ceo" {
		t.Errorf("last event = %+v", last)
	}
	// Events are ordered by sequence.
	for i := 1; i < len(log); i++ {
		if log[i].Seq <= log[i-1].Seq {
			t.Error("events out of order")
		}
	}
}

func TestMultiInputDerivation(t *testing.T) {
	tr := newTracker()
	tr.Ingest("a", "s", "u")
	tr.Ingest("b", "s", "u")
	tr.Derive("join", "spark", "u", []string{"a", "b"}, "joined")
	up, _ := tr.Upstream("joined")
	if len(up) != 2 {
		t.Errorf("Upstream of join = %v", up)
	}
	events := tr.Events()
	if len(events) != 2+2+2 { // 2 ingests + 2 reads + write+derive
		t.Errorf("events = %d", len(events))
	}
}

// Each capture returns the events it recorded, numbered and stamped, in
// the order the tracker's own log holds them: the caller persists
// exactly what the tracker answers from.
func TestCaptureReturnsEachEvent(t *testing.T) {
	tr := newTracker()
	got := []Event{tr.Ingest("a", "files", "alice")}
	got = append(got, tr.Derive("job", "spark", "bob", []string{"a"}, "b")...)
	ev, err := tr.Query([]string{"b"}, "sql", "carol")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, ev, tr.Discard("a", "core", "ops"))
	kinds := make([]EventKind, len(got))
	for i, ev := range got {
		kinds[i] = ev.Kind
	}
	want := []EventKind{EventIngest, EventRead, EventWrite, EventDerive, EventQuery, EventDiscard}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("captured kinds = %v, want %v", kinds, want)
	}
	if !reflect.DeepEqual(got, tr.Events()) {
		t.Fatalf("captured %+v, tracker holds %+v", got, tr.Events())
	}
}

// Retract takes back one event and leaves the rest, and the sequence
// counter, where they were: the next event is numbered past the gap.
func TestRetractTakesBackOneEvent(t *testing.T) {
	tr := newTracker()
	a := tr.Ingest("a", "files", "alice")
	b := tr.Ingest("b", "files", "alice")
	tr.Retract(b.Seq)
	tr.Retract(b.Seq + 7) // unknown: nothing happens
	if got := tr.Events(); !reflect.DeepEqual(got, []Event{a}) {
		t.Fatalf("events after retract = %+v, want only %+v", got, a)
	}
	if log := tr.AccessLog("b"); len(log) != 0 {
		t.Errorf("AccessLog(b) = %+v, want empty", log)
	}
	if c := tr.Ingest("c", "files", "alice"); c.Seq != b.Seq+1 {
		t.Errorf("next seq = %d, want %d", c.Seq, b.Seq+1)
	}
}

func TestInjectRebuildsGraphWithoutDuplicateEdges(t *testing.T) {
	src := newTracker()
	src.Ingest("a", "files", "alice")
	src.Derive("job", "spark", "bob", []string{"a"}, "b")
	dst := newTracker()
	for _, ev := range src.Events() {
		dst.Inject(ev)
	}
	if !reflect.DeepEqual(dst.Events(), src.Events()) {
		t.Fatalf("events diverge after inject:\n%+v\n%+v", dst.Events(), src.Events())
	}
	up, err := dst.Upstream("b")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a"}; !reflect.DeepEqual(up, want) {
		t.Fatalf("Upstream(b) = %v, want %v", up, want)
	}
	// New events continue past the injected sequence numbers.
	dst.Ingest("c", "files", "alice")
	evs := dst.Events()
	last := evs[len(evs)-1]
	if last.Seq <= evs[len(evs)-2].Seq {
		t.Fatalf("seq did not advance past injected events: %+v", last)
	}
}

// One statement over several entities is one event, the one Query
// returns; AccessLog expands it into one entry per mention, sharing its Seq,
// with unknown entities left out and reported, and Inject replays the
// grouped form to the same answers.
func TestQueryGroupsEntitiesIntoOneEvent(t *testing.T) {
	tr := newTracker()
	tr.Ingest("a", "files", "alice")
	tr.Ingest("b", "files", "alice")
	grouped, err := tr.Query([]string{"a", "ghost", "b", "a"}, "sql", "carol")
	if !errors.Is(err, ErrUnknownEntity) {
		t.Errorf("Query with an unknown entity = %v, want ErrUnknownEntity", err)
	}
	evs := tr.Events()
	if len(evs) != 3 || !reflect.DeepEqual(evs[2], grouped) || grouped.Entity != "" ||
		!reflect.DeepEqual(grouped.Entities, []string{"a", "b", "a"}) {
		t.Fatalf("events = %+v, returned %+v; want two ingests and one event over [a b a]", evs, grouped)
	}
	if ev, err := tr.Query([]string{"ghost"}, "sql", "carol"); !errors.Is(err, ErrUnknownEntity) || ev.Seq != 0 || len(tr.Events()) != 3 {
		t.Errorf("Query over unknown entities only = %+v, %v; want ErrUnknownEntity, nothing recorded", ev, err)
	}
	single := func(e string) Event {
		return Event{Seq: grouped.Seq, Kind: EventQuery, Entity: e, System: "sql", User: "carol", At: grouped.At}
	}
	wantA := []Event{evs[0], single("a"), single("a")}
	if got := tr.AccessLog("a"); !reflect.DeepEqual(got, wantA) {
		t.Errorf("AccessLog(a) = %+v, want %+v", got, wantA)
	}
	wantB := []Event{evs[1], single("b")}
	if got := tr.AccessLog("b"); !reflect.DeepEqual(got, wantB) {
		t.Errorf("AccessLog(b) = %+v, want %+v", got, wantB)
	}
	dst := newTracker()
	for _, ev := range evs {
		dst.Inject(ev)
	}
	if got := dst.AccessLog("a"); !reflect.DeepEqual(got, wantA) {
		t.Errorf("injected AccessLog(a) = %+v, want %+v", got, wantA)
	}
	only := newTracker()
	only.Inject(grouped)
	if _, err := only.Query([]string{"a", "b"}, "sql", "carol"); err != nil {
		t.Errorf("an injected grouped event did not register its entities: %v", err)
	}
}
