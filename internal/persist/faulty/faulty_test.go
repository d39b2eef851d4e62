package faulty

import (
	"errors"
	"testing"
	"time"

	"golake/internal/persist"
)

func TestPassthroughWhenUnprogrammed(t *testing.T) {
	b := New(persist.NewMemory())
	if err := b.AppendWAL([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	wal, err := b.ReadWAL()
	if err != nil || string(wal) != "0123456789" {
		t.Fatalf("wal = %q, %v", wal, err)
	}
	if err := b.Checkpoint([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	snap, err := b.ReadSnapshot()
	if err != nil || string(snap) != "snap" {
		t.Fatalf("snapshot = %q, %v", snap, err)
	}
	if sz, _ := b.WALSize(); sz != 0 {
		t.Errorf("wal size after checkpoint = %d", sz)
	}
	if b.Name() != "faulty(memory)" {
		t.Errorf("name = %q", b.Name())
	}
	if b.Injected() != 0 {
		t.Errorf("injected = %d, want 0", b.Injected())
	}
}

func TestFailEveryNthAppend(t *testing.T) {
	b := New(persist.NewMemory())
	b.FailEveryNthAppend(2)
	var fails int
	for i := 0; i < 6; i++ {
		if err := b.AppendWAL([]byte("xy")); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("append %d = %v, want ErrInjected", i, err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("failed appends = %d, want every 2nd of 6 = 3", fails)
	}
	if b.Appends() != 6 || b.Injected() != 3 {
		t.Errorf("appends/injected = %d/%d", b.Appends(), b.Injected())
	}
	// Only the successful appends reached the inner backend.
	if wal, _ := b.ReadWAL(); len(wal) != 6 {
		t.Errorf("inner wal = %d bytes, want 6", len(wal))
	}
}

func TestFailNextAppendsThenRecover(t *testing.T) {
	b := New(persist.NewMemory())
	b.FailNextAppends(2)
	for i := 0; i < 2; i++ {
		if err := b.AppendWAL([]byte("a")); !errors.Is(err, ErrInjected) {
			t.Fatalf("append %d = %v, want injected", i, err)
		}
	}
	if err := b.AppendWAL([]byte("a")); err != nil {
		t.Fatalf("append after fault budget spent: %v", err)
	}
}

func TestTornWriteLeavesHalfFrame(t *testing.T) {
	b := New(persist.NewMemory())
	b.TornWriteNextAppend()
	frame := []byte("0123456789")
	if err := b.AppendWAL(frame); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append = %v, want injected", err)
	}
	wal, _ := b.ReadWAL()
	if string(wal) != "01234" {
		t.Fatalf("inner wal = %q, want torn first half", wal)
	}
	// One-shot: the next append goes through whole.
	if err := b.AppendWAL(frame); err != nil {
		t.Fatal(err)
	}
	if wal, _ := b.ReadWAL(); len(wal) != 15 {
		t.Errorf("wal = %d bytes, want 15", len(wal))
	}
}

func TestFailCheckpointsAndHeal(t *testing.T) {
	b := New(persist.NewMemory())
	b.FailCheckpoints(true)
	if err := b.Checkpoint([]byte("s")); !errors.Is(err, ErrInjected) {
		t.Fatalf("checkpoint = %v, want injected", err)
	}
	b.Heal()
	if err := b.Checkpoint([]byte("s")); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
	if err := b.AppendWAL([]byte("a")); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
}

func TestSlowIODelays(t *testing.T) {
	b := New(persist.NewMemory())
	b.SlowIO(20 * time.Millisecond)
	start := time.Now()
	if err := b.AppendWAL([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("append took %v, want >= 20ms of injected latency", d)
	}
	b.Heal()
	start = time.Now()
	_ = b.AppendWAL([]byte("a"))
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("append after heal took %v", d)
	}
}

func TestFailNextSegmentPutsAndTornSegmentPut(t *testing.T) {
	b := New(persist.NewMemory())
	b.FailNextSegmentPuts(2)
	for i := 0; i < 2; i++ {
		if err := b.PutSegment("s", []byte("0123456789")); !errors.Is(err, ErrInjected) {
			t.Fatalf("put %d = %v, want injected", i, err)
		}
	}
	if segs, _ := b.ListSegments(); len(segs) != 0 {
		t.Fatalf("failed puts reached the inner backend: %v", segs)
	}
	b.TornSegmentPut()
	if err := b.PutSegment("torn", []byte("0123456789")); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn put = %v, want injected", err)
	}
	if got, _ := b.ReadSegment("torn"); string(got) != "01234" {
		t.Fatalf("torn segment = %q, want its first half", got)
	}
	// Both faults are spent: the next put goes through whole.
	if err := b.PutSegment("whole", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteSegment("torn"); err != nil {
		t.Fatal(err)
	}
	if segs, _ := b.ListSegments(); len(segs) != 1 || segs[0].Name != "whole" || segs[0].Size != 10 {
		t.Errorf("segments = %v, want whole/10", segs)
	}
	if b.Injected() != 3 {
		t.Errorf("injected = %d, want 3", b.Injected())
	}
	b.FailNextSegmentPuts(5)
	b.TornSegmentPut()
	b.Heal()
	if err := b.PutSegment("healed", []byte("x")); err != nil {
		t.Fatalf("put after heal: %v", err)
	}
}
