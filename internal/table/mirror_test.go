package table

import "testing"

// TestJSONMirrorOffsetGuard: a column whose encoding would not fit the
// offsets gets no wire form, whether its raw size already says so or
// only its escapes push it over; one that fits exactly gets one.
func TestJSONMirrorOffsetGuard(t *testing.T) {
	cells := []string{"ab", "<>", ""}
	encoded := len(`"ab"`) + len(`"\u003c\u003e"`) + len(`""`)
	for _, tc := range []struct {
		limit uint64
		built bool
	}{
		{5, false},                   // under the unescaped size
		{uint64(encoded - 1), false}, // over it only once "<>" is escaped
		{uint64(encoded), true},
	} {
		arena, ends := encodeJSON(cells, tc.limit)
		if built := ends != nil; built != tc.built || built != (arena != nil) {
			t.Errorf("limit %d: arena %q, %d offsets; want built=%v", tc.limit, arena, len(ends), tc.built)
		}
	}
}
