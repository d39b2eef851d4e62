package discovery_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golake/internal/discovery"
	"golake/internal/metamodel"
	"golake/internal/organize"
	"golake/internal/workload"
)

const goldenPath = "testdata/discovery_golden.txt"

// renderDiscovery runs the query-driven discovery and categorisation
// functions a maintenance pass and the explorer call over one seeded
// corpus and renders every answer, scores printed exactly (shortest
// round-tripping decimal), one line per query.
func renderDiscovery(t *testing.T) string {
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.Seed = 60, 8, 23
	corpus := workload.GenerateCorpus(spec)
	const k = 5

	var b strings.Builder
	score := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	tables := func(label string, res []metamodel.TableScore) {
		b.WriteString(label)
		for _, r := range res {
			b.WriteString(" " + r.Table + "=" + score(r.Score))
		}
		b.WriteByte('\n')
	}

	d3l := discovery.NewD3L()
	josie := discovery.NewJOSIE()
	juneaus := []*discovery.Juneau{
		discovery.NewJuneau(discovery.TaskAugment),
		discovery.NewJuneau(discovery.TaskFeatures),
		discovery.NewJuneau(discovery.TaskClean),
	}
	for _, d := range append([]discovery.Discoverer{d3l, josie}, juneaus[0], juneaus[1], juneaus[2]) {
		if err := d.Index(corpus.Tables); err != nil {
			t.Fatalf("%s.Index: %v", d.Name(), err)
		}
	}
	for _, q := range corpus.Tables {
		tables("D3L.RelatedTables "+q.Name, d3l.RelatedTables(q, k))
		key := corpus.KeyColumn[q.Name]
		cols, err := d3l.JoinableColumns(q, key, k)
		if err != nil {
			t.Fatalf("D3L.JoinableColumns(%s, %s): %v", q.Name, key, err)
		}
		b.WriteString("D3L.JoinableColumns " + q.Name + "." + key)
		for _, c := range cols {
			b.WriteString(" " + c.Ref.String() + "=" + score(c.Score))
		}
		b.WriteByte('\n')
		for task, j := range juneaus {
			tables(fmt.Sprintf("Juneau[%d].RelatedTables %s", task, q.Name), j.RelatedTables(q, k))
		}
		tables("JOSIE.RelatedTables "+q.Name, josie.RelatedTables(q, k))
	}

	knn := organize.NewDSKNN()
	for _, tbl := range corpus.Tables {
		fmt.Fprintf(&b, "DSKNN.Add %s %d\n", tbl.Name, knn.Add(tbl))
	}
	cats := knn.Categories()
	ids := make([]int, 0, len(cats))
	for id := range cats {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "DSKNN.Categories %d %s\n", id, strings.Join(cats[id], " "))
	}
	return b.String()
}

// TestDiscoveryGolden pins D3L, Juneau (all three tasks), JOSIE and
// DS-kNN answers — exact scores and order — on a 60-table, 8-group
// corpus. A kernel rewrite must leave every line unchanged. If the file
// is missing the test writes it and fails, so a new golden is only ever
// taken on purpose and reviewed before it is committed.
func TestDiscoveryGolden(t *testing.T) {
	got := renderDiscovery(t)
	raw, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and run again", goldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Errorf("%d lines, golden has %d", len(gl), len(wl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 10; i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			shown++
		}
	}
}
