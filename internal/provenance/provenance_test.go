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
	tr.Inject(IngestEvent("tweets_raw", "flume", "collector"))
	tr.Inject(DeriveEvents("count_hashtags", "hadoop", "analyst", []string{"tweets_raw"}, "hashtag_counts")...)
	tr.Inject(DeriveEvents("aggregate_by_cat", "spark", "analyst", []string{"hashtag_counts"}, "category_summary")...)
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
	// A second input two hops up, found last and sorting first: the
	// answer is the whole chain, sorted, not in the order it was walked.
	tr.Inject(IngestEvent("a_lexicon", "flume", "collector"))
	tr.Inject(DeriveEvents("count_hashtags", "hadoop", "analyst", []string{"a_lexicon"}, "hashtag_counts")...)
	up, err = tr.Upstream("category_summary")
	if want := []string{"a_lexicon", "hashtag_counts", "tweets_raw"}; err != nil || !reflect.DeepEqual(up, want) {
		t.Errorf("Upstream with a second input = %v, %v; want %v", up, err, want)
	}
}

func TestAccessLogAndQuery(t *testing.T) {
	tr := buildPipeline(t)
	ev, err := tr.QueryEvent([]string{"category_summary"}, "dashboard", "ceo")
	if err != nil {
		t.Fatal(err)
	}
	tr.Inject(ev)
	if ev, err := tr.QueryEvent([]string{"ghost"}, "dashboard", "ceo"); !errors.Is(err, ErrUnknownEntity) || ev.Kind != "" {
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
	tr.Inject(IngestEvent("a", "s", "u"), IngestEvent("b", "s", "u"))
	tr.Inject(DeriveEvents("join", "spark", "u", []string{"a", "b"}, "joined")...)
	up, _ := tr.Upstream("joined")
	if len(up) != 2 {
		t.Errorf("Upstream of join = %v", up)
	}
	events := tr.Events()
	if len(events) != 2+2+2 { // 2 ingests + 2 reads + write+derive
		t.Errorf("events = %d", len(events))
	}
}

// The constructors build events in capture order, and Inject numbers
// and dates the unnumbered ones in the order it is given them: the
// tracker's log holds exactly what was injected, its seqs dense.
func TestCaptureReturnsEachEvent(t *testing.T) {
	tr := newTracker()
	built := []Event{IngestEvent("a", "files", "alice")}
	built = append(built, DeriveEvents("job", "spark", "bob", []string{"a"}, "b")...)
	tr.Inject(built...)
	ev, err := tr.QueryEvent([]string{"b"}, "sql", "carol")
	if err != nil {
		t.Fatal(err)
	}
	built = append(built, ev, DiscardEvent("a", "core", "ops"))
	tr.Inject(built[len(built)-2:]...)
	got := tr.Events()
	kinds := make([]EventKind, len(got))
	for i, ev := range got {
		kinds[i] = ev.Kind
	}
	want := []EventKind{EventIngest, EventRead, EventWrite, EventDerive, EventQuery, EventDiscard}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("recorded kinds = %v, want %v", kinds, want)
	}
	for i := range got {
		stamped := built[i]
		stamped.Seq, stamped.At = i+1, got[i].At
		if got[i].At.IsZero() || !reflect.DeepEqual(got[i], stamped) {
			t.Errorf("event %d = %+v, want %+v numbered %d and dated", i, got[i], built[i], i+1)
		}
	}
	if tr.LastSeq() != len(want) {
		t.Errorf("LastSeq = %d, want %d", tr.LastSeq(), len(want))
	}
}

func TestInjectRebuildsGraphWithoutDuplicateEdges(t *testing.T) {
	src := newTracker()
	src.Inject(IngestEvent("a", "files", "alice"))
	src.Inject(DeriveEvents("job", "spark", "bob", []string{"a"}, "b")...)
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
	dst.Inject(IngestEvent("c", "files", "alice"))
	evs := dst.Events()
	last := evs[len(evs)-1]
	if last.Seq <= evs[len(evs)-2].Seq {
		t.Fatalf("seq did not advance past injected events: %+v", last)
	}
}

// One statement over several entities is one event, the one QueryEvent
// builds; AccessLog expands it into one entry per mention, sharing its Seq,
// with unknown entities left out and reported, and Inject replays the
// grouped form to the same answers.
func TestQueryGroupsEntitiesIntoOneEvent(t *testing.T) {
	tr := newTracker()
	tr.Inject(IngestEvent("a", "files", "alice"), IngestEvent("b", "files", "alice"))
	grouped, err := tr.QueryEvent([]string{"a", "ghost", "b", "a"}, "sql", "carol")
	if !errors.Is(err, ErrUnknownEntity) {
		t.Errorf("Query with an unknown entity = %v, want ErrUnknownEntity", err)
	}
	tr.Inject(grouped)
	evs := tr.Events()
	if len(evs) != 3 || evs[2].Seq != 3 || evs[2].At.IsZero() {
		t.Fatalf("events = %+v; want two ingests and the statement's event, numbered 3 and dated", evs)
	}
	grouped.Seq, grouped.At = evs[2].Seq, evs[2].At
	if !reflect.DeepEqual(evs[2], grouped) || grouped.Entity != "" ||
		!reflect.DeepEqual(grouped.Entities, []string{"a", "b", "a"}) {
		t.Fatalf("events = %+v, returned %+v; want two ingests and one event over [a b a]", evs, grouped)
	}
	if ev, err := tr.QueryEvent([]string{"ghost"}, "sql", "carol"); !errors.Is(err, ErrUnknownEntity) || ev.Kind != "" || len(tr.Events()) != 3 {
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
	if _, err := only.QueryEvent([]string{"a", "b"}, "sql", "carol"); err != nil {
		t.Errorf("an injected grouped event did not register its entities: %v", err)
	}
}
