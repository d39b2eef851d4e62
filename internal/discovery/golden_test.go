package discovery_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golake/internal/discovery"
	"golake/internal/metamodel"
	"golake/internal/organize"
	"golake/internal/table"
	"golake/internal/workload"
)

const goldenPath = "testdata/discovery_golden.txt"

// goldenCorpus is the seeded 60-table, 8-group corpus the golden file
// and the drift bound are taken on.
func goldenCorpus() *workload.Corpus {
	spec := workload.DefaultSpec()
	spec.NumTables, spec.JoinGroups, spec.Seed = 60, 8, 23
	return workload.GenerateCorpus(spec)
}

// renderDiscovery runs the query-driven discovery and categorisation
// functions a maintenance pass and the explorer call over one seeded
// corpus and renders every answer, scores printed exactly (shortest
// round-tripping decimal), one line per query.
func renderDiscovery(t *testing.T) string {
	corpus := goldenCorpus()
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

// D3L's embedding is trained on the corpus, and an incremental Index
// extends it without re-embedding the columns already profiled, so a
// lake grown by adds ranks a little differently from one indexed whole.
// This bounds the drift on the golden corpus: 20 tables indexed at
// once, then 40 added one at a time, against all 60 indexed at once.
// Measured: 263 of the 300 top-5 answers shared, scores of shared
// answers within 0.063, every answer in the query's join group on both
// sides.
func TestD3LIncrementalDriftBounded(t *testing.T) {
	corpus := goldenCorpus()
	const base, k = 20, 5
	full, grown := discovery.NewD3L(), discovery.NewD3L()
	if err := full.Index(corpus.Tables); err != nil {
		t.Fatal(err)
	}
	if err := grown.Index(corpus.Tables[:base]); err != nil {
		t.Fatal(err)
	}
	for _, tb := range corpus.Tables[base:] {
		if err := grown.Index([]*table.Table{tb}); err != nil {
			t.Fatal(err)
		}
	}
	shared, answers, maxDiff := 0, 0, 0.0
	for _, q := range corpus.Tables {
		want, got := full.RelatedTables(q, k), grown.RelatedTables(q, k)
		score := map[string]float64{}
		for _, r := range want {
			score[r.Table] = r.Score
		}
		for _, r := range got {
			if corpus.GroupOf[r.Table] != corpus.GroupOf[q.Name] {
				t.Errorf("%s: grown index ranks %s, outside its join group", q.Name, r.Table)
			}
			if s, ok := score[r.Table]; ok {
				shared++
				maxDiff = math.Max(maxDiff, math.Abs(s-r.Score))
			}
		}
		answers += len(want)
	}
	if frac := float64(shared) / float64(answers); frac < 0.85 || maxDiff > 0.08 {
		t.Errorf("drift after %d incremental adds: %d of %d top-%d answers shared (%.3f, want >= 0.85), max score gap %.4f (want <= 0.08)",
			len(corpus.Tables)-base, shared, answers, k, frac, maxDiff)
	}
}
