package query

import "testing"

// FuzzParse feeds arbitrary statements to the parser, the first code
// an untrusted POST /v1/query body reaches: it must not panic, and it
// returns exactly one of a query or an error.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"SELECT a, b FROM rel:orders WHERE status = 'open' AND total >= 10 LIMIT 5",
		"SELECT * FROM rel:t WHERE name = 'o''brien'",
		"SELECT a FROM rel:t, doc:u WHERE a > 1 ORDER BY b DESC, a ASC, c LIMIT 4",
		"EXPLAIN ANALYZE SELECT id FROM rel:orders LIMIT 3",
		"SELECT name FROM doc:person WHERE age > 26",
		"SELECT path, format FROM file:raw/",
		"SELEKT a FROM t",
		"SELECT",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if (q == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a query or an error", s, q, err)
		}
	})
}
