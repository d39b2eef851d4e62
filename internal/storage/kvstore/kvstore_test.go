package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	s.Put("a", []byte("1"))
	got, err := s.Get("a")
	if err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	s.Delete("a")
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete err = %v, want ErrNotFound", err)
	}
	// Missing key.
	if _, err := s.Get("zzz"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing err = %v", err)
	}
}

func TestOverwriteLatestWins(t *testing.T) {
	s := New()
	s.Put("k", []byte("v1"))
	s.Flush()
	s.Put("k", []byte("v2"))
	got, _ := s.Get("k")
	if string(got) != "v2" {
		t.Errorf("Get = %q, want v2 (memtable over segment)", got)
	}
	s.Flush()
	got, _ = s.Get("k")
	if string(got) != "v2" {
		t.Errorf("Get = %q, want v2 (newer segment wins)", got)
	}
}

func TestTombstoneShadowsSegment(t *testing.T) {
	s := New()
	s.Put("k", []byte("v"))
	s.Flush()
	s.Delete("k")
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("tombstone in memtable should shadow segment: %v", err)
	}
	s.Flush()
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("tombstone in newer segment should shadow: %v", err)
	}
}

func TestScanOrderedAndRange(t *testing.T) {
	s := New()
	keys := []string{"b", "a", "d", "c", "e"}
	for _, k := range keys {
		s.Put(k, []byte(k))
	}
	s.Flush()
	s.Put("f", []byte("f")) // in memtable
	all := s.Scan("", "")
	if len(all) != 6 {
		t.Fatalf("Scan all = %d entries, want 6", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
		t.Error("Scan result not sorted")
	}
	mid := s.Scan("b", "e")
	if len(mid) != 3 || mid[0].Key != "b" || mid[2].Key != "d" {
		t.Errorf("Scan(b,e) = %v", mid)
	}
}

func TestScanPrefix(t *testing.T) {
	s := New()
	s.Put("dataset/1/meta", []byte("m1"))
	s.Put("dataset/1/prov", []byte("p1"))
	s.Put("dataset/2/meta", []byte("m2"))
	s.Put("other/x", []byte("o"))
	got := s.ScanPrefix("dataset/1/")
	if len(got) != 2 {
		t.Fatalf("ScanPrefix = %d entries, want 2", len(got))
	}
	if got[0].Key != "dataset/1/meta" {
		t.Errorf("first = %q", got[0].Key)
	}
	if keys := s.Keys("dataset/"); len(keys) != 3 {
		t.Errorf("Keys(dataset/) = %v", keys)
	}
	// 0xff prefix edge case: unbounded end.
	s.Put("\xff\xff", []byte("hi"))
	if got := s.ScanPrefix("\xff\xff"); len(got) != 1 {
		t.Errorf("ScanPrefix(0xff) = %v", got)
	}
}

func TestAutoFlushAtLimit(t *testing.T) {
	s := NewWithLimit(10)
	for i := 0; i < 25; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)})
	}
	if len(s.segments) < 2 {
		t.Errorf("segments = %d, want >= 2 after 25 puts with limit 10", len(s.segments))
	}
	for i := 0; i < 25; i++ {
		if _, err := s.Get(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("key k%02d lost after auto flush", i)
		}
	}
	if s.Len() != 25 {
		t.Errorf("Len = %d, want 25", s.Len())
	}
}

func TestValueIsolation(t *testing.T) {
	s := New()
	v := []byte("abc")
	s.Put("k", v)
	v[0] = 'X'
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Error("Put did not copy the value")
	}
	got[0] = 'Y'
	got2, _ := s.Get("k")
	if string(got2) != "abc" {
		t.Error("Get did not copy the value")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewWithLimit(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d/k%d", g, i)
				s.Put(k, []byte(k))
				if _, err := s.Get(k); err != nil {
					t.Errorf("Get(%s): %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", s.Len())
	}
}

// Property: the store behaves like a map under arbitrary sequences of
// put/delete/flush.
func TestStoreMatchesMapModel(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value uint8
	}
	f := func(ops []op) bool {
		s := NewWithLimit(8)
		model := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key%d", o.Key%16)
			switch o.Kind % 4 {
			case 0, 1:
				v := fmt.Sprintf("v%d", o.Value)
				s.Put(k, []byte(v))
				model[k] = v
			case 2:
				s.Delete(k)
				delete(model, k)
			case 3:
				s.Flush()
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, err := s.Get(k)
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
