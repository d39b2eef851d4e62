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
	if err := tr.Query("category_summary", "dashboard", "ceo"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Query("ghost", "dashboard", "ceo"); !errors.Is(err, ErrUnknownEntity) {
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
	if err := tr.Query("b", "sql", "carol"); err != nil {
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
