package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"golake/internal/clean"
	"golake/internal/enrich"
	"golake/internal/table"
)

// rfdTieCSV generates a table whose column names split alike ("ab" + "c"
// and "a" + "bc" both read "abc"), some of them repeated, over a small
// vocabulary, with a violation now and then in half the tables: many of
// its RFDs share a confidence and an Lhs+Rhs, and the wide ones find
// more than the 12 that sort.Slice insertion-sorts.
func rfdTieCSV(rng *rand.Rand) string {
	names := []string{"a", "ab", "b", "bc", "c", "abc", "x"}
	cols, rows, vocab := 3+rng.Intn(6), 4+rng.Intn(30), 1+rng.Intn(4)
	noisy := rng.Intn(2) == 0 // a clean table's RFDs all hold at 1
	header := make([]string, cols)
	for c := range header {
		header[c] = names[rng.Intn(len(names))]
	}
	var b strings.Builder
	b.WriteString(strings.Join(header, ",") + "\n")
	for r := 0; r < rows; r++ {
		base := rng.Intn(vocab)
		for c := 0; c < cols; c++ {
			v := base
			if noisy && rng.Intn(20) == 0 {
				v = rng.Intn(vocab + 1)
			}
			if c > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// A pass discovers each table's RFDs once, and its report still holds
// what the two discoveries it replaced gave: per table, the RFDs
// DiscoverRFDs finds at rfdMinConfidence, in its order, ties included,
// and the violations CountViolations finds of DiscoverConstraints at
// clamsMinConfidence. Checked on a full pass and on incremental ones.
func TestMaintainReportMatchesTwoRFDDiscoveries(t *testing.T) {
	const seed = 20261020
	rng := rand.New(rand.NewSource(seed))
	l := testLake(t)
	ctx := context.Background()
	tables := map[string]*table.Table{}
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("rfd%03d", len(tables))
			csv := rfdTieCSV(rng)
			if _, err := l.Ingest(ctx, "raw/"+name+".csv", []byte(csv), "generator", "dana"); err != nil {
				t.Fatal(err)
			}
			tb, err := table.ParseCSV(name, csv)
			if err != nil {
				t.Fatal(err)
			}
			tables[name] = tb
		}
	}
	violated := 0
	check := func(rep *MaintenanceReport, names map[string]bool) {
		t.Helper()
		got := map[string][]enrich.RFD{}
		for _, r := range rep.RFDs {
			got[r.Table] = append(got[r.Table], r)
		}
		violations := 0
		for name := range names {
			tb := tables[name]
			if want := enrich.DiscoverRFDs(tb, 0.95); !reflect.DeepEqual(got[name], want) {
				t.Fatalf("%s pass, %s: report RFDs %v, DiscoverRFDs %v", rep.Mode, name, got[name], want)
			}
			violations += clean.CountViolations(tb, clean.DiscoverConstraints(tb, 0.9))
		}
		if rep.CleanViolations != violations {
			t.Fatalf("%s pass: %d violations, CountViolations of DiscoverConstraints %d", rep.Mode, rep.CleanViolations, violations)
		}
		violated += violations
	}
	ingest(40)
	rep, err := l.Maintain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]bool{}
	for name := range tables {
		all[name] = true
	}
	check(rep, all)
	for round := 0; round < 3; round++ {
		before := len(tables)
		ingest(5)
		rep, err := l.MaintainIncremental(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fresh := map[string]bool{}
		for i := before; i < len(tables); i++ {
			fresh[fmt.Sprintf("rfd%03d", i)] = true
		}
		if rep.Mode != "incremental" {
			t.Fatalf("round %d: %s pass", round, rep.Mode)
		}
		check(rep, fresh)
	}
	ties := 0
	for _, tb := range tables {
		rfds := enrich.DiscoverRFDs(tb, 0.95)
		for a := range rfds {
			for b := a + 1; b < len(rfds) && len(rfds) > 12; b++ {
				if x, y := rfds[a], rfds[b]; x.Confidence == y.Confidence && x.Lhs+x.Rhs == y.Lhs+y.Rhs && x.Lhs != y.Lhs {
					ties++
				}
			}
		}
	}
	if ties == 0 || violated == 0 {
		t.Fatalf("seed %d: %d ties on Lhs+Rhs in reports of over 12 RFDs, %d violations: want both", seed, ties, violated)
	}
}
