package table

import (
	"encoding/csv"
	"errors"
	"math/rand"
	"testing"
)

// csvSeeds are bodies on the edges of the CSV grammar: CRLF line ends,
// a lone \r at the end, "" escapes, quoted cells across lines, bare and
// unclosed quotes, a byte-order mark, and blank lines inside and outside
// quotes.
var csvSeeds = []string{
	"id,total,city\n1,9.5,berlin\n2,3.0,paris\n",
	"\xef\xbb\xbfa,b\n1,2\n",
	"\xef\xbb\xbf\"a\",b\r\n1,2\r\n",
	"a,b\n1\n",
	"a,b\n1,2,3\n",
	"a\n\"quoted, cell\"\n\"open",
	"a,a\n,\n\n",
	"",
	"a,b\r\n1,2\r\n3,4\r\n",
	"a,b\n1,2\r",
	"a,b\n1,2\r\r",
	"\r",
	"a\n\r\n\r",
	"a,b\n\"\",\"x\"\"y\"\n\"\"\"\",2\n",
	"a,b\n\"line\none\",2\n\"crlf\r\ntwo\",3\r\n",
	"a,b\n\"blank\n\n\nlines\",1\n\n\n2,3\n\n",
	"a,b\nx\"y,1\n",
	"a,b\n1,\"x\"y\n",
	"a,b\n\"x\n\"y,1\n",
	"a,b\n1,\"open\n\nstill",
	"a,b\n1,\"open\r",
	"\"a\r\nb\",c\r\n\"\r\n\",d",
	"a,b\n 1 , \"2\"\n",
	"a,b\n\"1\" ,2\n",
}

// FuzzReadCSV feeds arbitrary bytes to the CSV reader, the parse every
// ingested .csv goes through: it must not panic, a table it returns has
// NumRows cells in every column, and it must read what encoding/csv
// reads (refReadCSV): the same header, cells and kinds, or the same
// error, a *csv.ParseError with the same lines and column.
func FuzzReadCSV(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadCSV(t, data)
	})
}

// TestReadCSVMatchesEncodingCSV holds the reader to encoding/csv on
// generated bodies drawn from the bytes the grammar turns on.
func TestReadCSVMatchesEncodingCSV(t *testing.T) {
	for _, s := range csvSeeds {
		checkReadCSV(t, []byte(s))
	}
	const alphabet = "a1,,\"\"\n\n\r "
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		checkReadCSV(t, b)
	}
}

func checkReadCSV(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadCSV("f", data)
	want, wantErr := refReadCSV("f", data)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("ReadCSV(%q) error %v, encoding/csv %v", data, err, wantErr)
		}
		var pe, wantPE *csv.ParseError
		if errors.As(wantErr, &wantPE) && (!errors.As(err, &pe) || *pe != *wantPE) {
			t.Fatalf("ReadCSV(%q) error %#v, encoding/csv %#v", data, pe, wantPE)
		}
		return
	}
	if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		t.Fatalf("ReadCSV(%q) = %v, encoding/csv %v", data, got, want)
	}
	for j, c := range got.Columns {
		w := want.Columns[j]
		if c.Name != w.Name || c.Kind != w.Kind || c.Len() != got.NumRows() {
			t.Fatalf("ReadCSV(%q) column %d = %q %v (%d cells), encoding/csv %q %v", data, j, c.Name, c.Kind, c.Len(), w.Name, w.Kind)
		}
		for i, v := range c.Cells {
			if v != w.Cells[i] {
				t.Fatalf("ReadCSV(%q) cell (%d,%d) = %q, encoding/csv %q", data, i, j, v, w.Cells[i])
			}
		}
	}
}
