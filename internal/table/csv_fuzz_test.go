package table

import "testing"

// FuzzReadCSV feeds arbitrary bytes to the CSV reader, the parse every
// ingested .csv goes through: it must not panic, and a table it
// returns has NumRows cells in every column.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"id,total,city\n1,9.5,berlin\n2,3.0,paris\n",
		"\xef\xbb\xbfa,b\n1,2\n",
		"a,b\n1\n",
		"a,b\n1,2,3\n",
		"a\n\"quoted, cell\"\n\"open",
		"a,a\n,\n\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := ReadCSV("f", data)
		if err != nil {
			return
		}
		if tbl == nil {
			t.Fatalf("ReadCSV(%q) = nil table, nil error", data)
		}
		for _, c := range tbl.Columns {
			if c.Len() != tbl.NumRows() {
				t.Fatalf("ReadCSV(%q): column %q has %d cells, table %d rows", data, c.Name, c.Len(), tbl.NumRows())
			}
		}
	})
}
