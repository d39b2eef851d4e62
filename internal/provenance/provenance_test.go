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
	if err := tr.Derive("count_hashtags", "hadoop", "analyst", []string{"tweets_raw"}, "hashtag_counts"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Derive("aggregate_by_cat", "spark", "analyst", []string{"hashtag_counts"}, "category_summary"); err != nil {
		t.Fatal(err)
	}
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
	if err := tr.Query([]string{"category_summary"}, "dashboard", "ceo"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Query([]string{"ghost"}, "dashboard", "ceo"); !errors.Is(err, ErrUnknownEntity) {
		t.Errorf("Query ghost = %v", err)
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
	if err := tr.Derive("join", "spark", "u", []string{"a", "b"}, "joined"); err != nil {
		t.Fatal(err)
	}
	up, _ := tr.Upstream("joined")
	if len(up) != 2 {
		t.Errorf("Upstream of join = %v", up)
	}
	events := tr.Events()
	if len(events) != 2+2+2 { // 2 ingests + 2 reads + write+derive
		t.Errorf("events = %d", len(events))
	}
}

func TestHookFiresPerEvent(t *testing.T) {
	tr := newTracker()
	var got []Event
	tr.SetHook(func(ev Event) { got = append(got, ev) })
	tr.Ingest("a", "files", "alice")
	if err := tr.Derive("job", "spark", "bob", []string{"a"}, "b"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Query([]string{"b"}, "sql", "carol"); err != nil {
		t.Fatal(err)
	}
	tr.Discard("a", "core", "ops")
	kinds := make([]EventKind, len(got))
	for i, ev := range got {
		kinds[i] = ev.Kind
	}
	want := []EventKind{EventIngest, EventRead, EventWrite, EventDerive, EventQuery, EventDiscard}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("hook kinds = %v, want %v", kinds, want)
	}
	// Hooks may call back into the tracker: firing outside the lock.
	tr.SetHook(func(ev Event) { _ = tr.Events() })
	tr.Ingest("c", "files", "alice")
}

func TestInjectRebuildsGraphWithoutHookOrDuplicateEdges(t *testing.T) {
	src := newTracker()
	src.Ingest("a", "files", "alice")
	if err := src.Derive("job", "spark", "bob", []string{"a"}, "b"); err != nil {
		t.Fatal(err)
	}
	dst := newTracker()
	fired := 0
	dst.SetHook(func(Event) { fired++ })
	for _, ev := range src.Events() {
		dst.Inject(ev)
	}
	if fired != 0 {
		t.Fatalf("hook fired %d times during Inject", fired)
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

// One statement over several entities is one event and one hook call;
// AccessLog expands it into one entry per mention, sharing its Seq,
// with unknown entities left out and reported, and Inject replays the
// grouped form to the same answers.
func TestQueryGroupsEntitiesIntoOneEvent(t *testing.T) {
	tr := newTracker()
	tr.Ingest("a", "files", "alice")
	tr.Ingest("b", "files", "alice")
	fired := 0
	tr.SetHook(func(Event) { fired++ })
	err := tr.Query([]string{"a", "ghost", "b", "a"}, "sql", "carol")
	if !errors.Is(err, ErrUnknownEntity) {
		t.Errorf("Query with an unknown entity = %v, want ErrUnknownEntity", err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times for one statement, want 1", fired)
	}
	evs := tr.Events()
	grouped := evs[len(evs)-1]
	if len(evs) != 3 || grouped.Entity != "" || !reflect.DeepEqual(grouped.Entities, []string{"a", "b", "a"}) {
		t.Fatalf("events = %+v, want two ingests and one event over [a b a]", evs)
	}
	if err := tr.Query([]string{"ghost"}, "sql", "carol"); !errors.Is(err, ErrUnknownEntity) || fired != 1 {
		t.Errorf("Query over unknown entities only = %v, hook fired %d times; want ErrUnknownEntity, nothing recorded", err, fired)
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
	if err := only.Query([]string{"a", "b"}, "sql", "carol"); err != nil {
		t.Errorf("an injected grouped event did not register its entities: %v", err)
	}
}
