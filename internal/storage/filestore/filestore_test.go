package filestore

import (
	"errors"
	"testing"
	"testing/quick"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	return New()
}

func TestPutGetStatDelete(t *testing.T) {
	s := newStore(t)
	data := []byte("a,b\n1,2\n3,4\n")
	info, err := s.Put("raw/orders.csv", data, nil)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if info.Format != FormatCSV {
		t.Errorf("Format = %v, want csv", info.Format)
	}
	if info.Size != int64(len(data)) {
		t.Errorf("Size = %d, want %d", info.Size, len(data))
	}
	got, err := s.Get("raw/orders.csv")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != string(data) {
		t.Errorf("Get = %q, want %q", got, data)
	}
	if st := s.List("raw/orders.csv"); len(st) != 1 || st[0] != info {
		t.Errorf("List = %+v, want [%+v]", st, info)
	}
	if err := s.Delete("raw/orders.csv"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("raw/orders.csv"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete err = %v, want ErrNotFound", err)
	}
	if err := s.Delete("raw/orders.csv"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Delete err = %v, want ErrNotFound", err)
	}
}

func TestListPrefix(t *testing.T) {
	s := newStore(t)
	for _, p := range []string{"zone-raw/a.csv", "zone-raw/b.csv", "zone-clean/c.csv"} {
		if _, err := s.Put(p, []byte("x,y\n1,2\n"), nil); err != nil {
			t.Fatal(err)
		}
	}
	raw := s.List("zone-raw/")
	if len(raw) != 2 {
		t.Fatalf("List(zone-raw/) = %d objects, want 2", len(raw))
	}
	if raw[0].Path != "zone-raw/a.csv" || raw[1].Path != "zone-raw/b.csv" {
		t.Errorf("List order = %v", []string{raw[0].Path, raw[1].Path})
	}
	if all := s.List(""); len(all) != 3 {
		t.Errorf("List(all) = %d, want 3", len(all))
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestInvalidPaths(t *testing.T) {
	s := newStore(t)
	for _, p := range []string{"", ".", "/", "../escape", "a/../../b", "a/..", ".golake", ".golake/wal.log", "/.golake/segments/x"} {
		if _, err := s.Put(p, []byte("x"), nil); !errors.Is(err, ErrInvalidPath) {
			t.Errorf("Put(%q) err = %v, want ErrInvalidPath", p, err)
		}
	}
	// ".." inside a name is not a path element.
	for p, want := range map[string]string{
		"raw/q1..q2.csv": "raw/q1..q2.csv",
		"..hidden":       "..hidden",
		"a../b":          "a../b",
		"/raw//x.csv":    "raw/x.csv",
		"raw/./y.csv":    "raw/y.csv",
		".golake2/z":     ".golake2/z",
	} {
		info, err := s.Put(p, []byte("x"), nil)
		if err != nil || info.Path != want {
			t.Errorf("Put(%q) = %q, %v; want %q", p, info.Path, err, want)
		}
	}
}

// Get reads an object back through the ReadFunc it was put with, and
// the store keeps no bytes of its own for it.
func TestGetReadsThroughReadFunc(t *testing.T) {
	s := newStore(t)
	backing := []byte("a,b\n1,2\n")
	reads := 0
	read := func() ([]byte, error) { reads++; return backing, nil }
	info, err := s.Put("raw/t.csv", backing, read)
	if err != nil || info.Format != FormatCSV || info.Size != int64(len(backing)) {
		t.Fatalf("Put = %+v, %v", info, err)
	}
	if got, err := s.Get("raw/t.csv"); err != nil || string(got) != string(backing) || reads != 1 {
		t.Errorf("Get = %q, %v after %d reads", got, err, reads)
	}
	gone := errors.New("segment gone")
	if _, err := s.Put("raw/u.csv", backing, func() ([]byte, error) { return nil, gone }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("raw/u.csv"); !errors.Is(err, gone) {
		t.Errorf("Get with a failing read err = %v, want it wrapped", err)
	}
}

// Without a ReadFunc the store keeps its own copy: neither the caller's
// buffer nor a returned slice can change the stored bytes.
func TestPutWithoutReadFuncKeepsACopy(t *testing.T) {
	s := newStore(t)
	data := []byte("v1")
	if _, err := s.Put("k", data, nil); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _ := s.Get("k")
	got[1] = 'Y'
	if again, _ := s.Get("k"); string(again) != "v1" {
		t.Errorf("Get = %q, want v1", again)
	}
}

func TestPutOverwrite(t *testing.T) {
	s := newStore(t)
	if _, err := s.Put("k", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	info, err := s.Put("k", []byte("v2-longer"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 9 {
		t.Errorf("overwrite Size = %d, want 9", info.Size)
	}
	got, _ := s.Get("k")
	if string(got) != "v2-longer" {
		t.Errorf("Get after overwrite = %q", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len after overwrite = %d, want 1", s.Len())
	}
}

func TestDetectFormats(t *testing.T) {
	cases := []struct {
		name string
		data string
		want Format
	}{
		{"d.csv", "a,b\n1,2", FormatCSV},
		{"d.tsv", "a\tb", FormatCSV},
		{"d.json", `{"a":1}`, FormatJSON},
		{"d.json", "{\"a\":1}\n{\"a\":2}\n", FormatJSONL},
		{"d.jsonl", `{"a":1}`, FormatJSONL},
		{"d.xml", "<root/>", FormatXML},
		{"d.log", "[INFO] started", FormatLog},
		{"d.txt", "hello", FormatText},
		{"noext", "a,b,c\n1,2,3\n4,5,6\n", FormatCSV},
		{"noext", `{"k": [1,2]}`, FormatJSON},
		{"noext", "2021-01-01 INFO boot\n2021-01-02 ERROR crash\n", FormatLog},
		{"noext", "<?xml version=\"1.0\"?><a/>", FormatXML},
		{"noext", "free text prose", FormatText},
		{"noext", string([]byte{0xff, 0xfe, 0x00, 0x01}), FormatBinary},
		{"noext", "", FormatText},
	}
	for _, c := range cases {
		if got := Detect(c.name, []byte(c.data)); got != c.want {
			t.Errorf("Detect(%q, %q) = %v, want %v", c.name, c.data, got, c.want)
		}
	}
}

// Property: Put then Get returns the same bytes for arbitrary content.
func TestPutGetRoundTripProperty(t *testing.T) {
	s := newStore(t)
	i := 0
	f := func(data []byte) bool {
		i++
		p := "obj/" + string(rune('a'+i%26)) + "x"
		if _, err := s.Put(p, data, nil); err != nil {
			return false
		}
		got, err := s.Get(p)
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
