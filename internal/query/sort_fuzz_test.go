package query

import (
	"fmt"
	"testing"
)

// FuzzSortTopK decodes bytes into rows of key cells drawn from
// topKCells, a limit, per-key directions, a batch size, whether the
// second key is a column the input lacks and whether the rows reach
// the stage through a selection; top-K must emit exactly the prefix of
// the full sort of the same input.
//
// Layout: data[0] is the limit, data[1] the flags (bits 0-1 key
// directions, bit 2 a missing second key, bit 3 a selection, bits 4-5
// the batch size), and every two bytes after that one row's two key
// cells; a row whose first byte is odd is filtered out under a
// selection.
func FuzzSortTopK(f *testing.F) {
	f.Add([]byte{3, 0x00, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{2, 0x0f, 9, 9, 9, 10, 11, 9, 0, 1, 1, 0, 12, 12})
	f.Add([]byte{1, 0x31, 0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{5, 0x26, 10, 11, 11, 10, 9, 12, 12, 9, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		limit, flags := int(data[0])%40+1, data[1]
		data = data[2:]
		cols := []string{"k0", "k1", "keep"}
		var rows [][]string
		for i := 0; i+1 < len(data) && len(rows) < 200; i += 2 {
			keep := "y"
			if data[i]&1 != 0 {
				keep = "n"
			}
			rows = append(rows, []string{topKCells[int(data[i])%len(topKCells)], topKCells[int(data[i+1])%len(topKCells)], keep})
		}
		second := "k1"
		if flags&4 != 0 {
			second = "ghost"
		}
		keys := []OrderKey{{Column: "k0", Desc: flags&1 != 0}, {Column: second, Desc: flags&2 != 0}}
		batch := []int{1, 3, 7, 1024}[flags>>4&3]
		filtered := flags&8 != 0
		full := sortIn(t, cols, rows, keys, 0, batch, filtered)
		got := sortIn(t, cols, rows, keys, limit, batch, filtered)
		if want := full[:min(limit, len(full))]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("keys %v, limit %d:\n got %q\nwant %q", keys, limit, got, want)
		}
	})
}
