package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// summary is what -repeat writes and -compare reads: every end-to-end
// value of every run, by workload and metric, with the stamp of the
// machine that produced them. A benchmark-defining change claims no
// gain, so Claim is null here; a later change that does claim one pastes
// the -compare output of two summaries instead.
type summary struct {
	Commit     string                          `json:"commit"`
	GoVersion  string                          `json:"go_version"`
	GOMAXPROCS int                             `json:"gomaxprocs"`
	NProc      int                             `json:"nproc"`
	CPU        string                          `json:"cpu"`
	Deployment string                          `json:"deployment"`
	Seed       int64                           `json:"seed"`
	Seconds    float64                         `json:"seconds"`
	Repeat     int                             `json:"repeat"`
	Runs       map[string]map[string][]float64 `json:"runs"`
	Failed     map[string]int                  `json:"failed"`
	Claim      *string                         `json:"claim"`
}

// repeatMain runs each selected workload n times, reversing the
// workload order every round so that no workload always runs on a warm
// or a cold process, then prints per-metric medians, quartiles and
// whether the spread fits inside the metric's bound.
func repeatMain(ctx context.Context, e *env, manifestPath, only string, n int, out string) int {
	m, errs := loadManifest(manifestPath)
	if reportInvalid(errs) {
		return 1
	}
	selected := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", only)
			return 2
		}
		selected = []workload{w}
	}
	sum := summary{
		Commit: commit(manifestPath), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Deployment: deploymentStamp, Seed: e.seed, Seconds: e.seconds, Repeat: n,
		Runs: map[string]map[string][]float64{}, Failed: map[string]int{},
	}
	for round := 0; round < n; round++ {
		order := append([]workload(nil), selected...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			rep, err := runWorkload(ctx, w, e)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Printf("round %d/%d  ", round+1, n)
			rep.print(os.Stdout)
			if sum.Runs[w.name] == nil {
				sum.Runs[w.name] = map[string][]float64{}
			}
			for name, v := range rep.Metrics {
				sum.Runs[w.name][name] = append(sum.Runs[w.name][name], v.Value)
			}
			sum.Failed[w.name] += rep.Failed
		}
	}
	status := 0
	for _, w := range selected {
		if sum.Failed[w.name] > 0 {
			status = 1
		}
	}
	sum.print(os.Stdout, m)
	if out != "" {
		raw, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("summary written to %s\n", out)
	}
	return status
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// print writes the per-metric table of a summary.
func (s *summary) print(w io.Writer, m *manifest) {
	fmt.Fprintf(w, "\n%d runs per workload, seed %d, seconds %g; spread = (Q3-Q1)/median\n", s.Repeat, s.Seed, s.Seconds)
	for _, wl := range sortedKeys(s.Runs) {
		fmt.Fprintf(w, "%s (failed ops over all runs: %d)\n", wl, s.Failed[wl])
		fmt.Fprintf(w, "  %-14s %12s %12s %12s %8s %7s  %s\n", "metric", "Q1", "median", "Q3", "spread", "bound", "")
		for _, name := range sortedKeys(s.Runs[wl]) {
			vs := s.Runs[wl][name]
			q1, q2, q3 := quartiles(vs)
			spread := spreadFrac(vs)
			bound, _, _ := m.bound(name)
			verdict := "inside bound"
			switch {
			case spread > bound:
				verdict = "WIDER THAN BOUND"
			case spread > bound/3:
				verdict = "inside bound, above a third of it"
			}
			fmt.Fprintf(w, "  %-14s %12.4f %12.4f %12.4f %7.2f%% %6.0f%%  %s\n", name, q1, q2, q3, 100*spread, 100*bound, verdict)
		}
	}
}

// compareMain is -compare A.json B.json: per workload and metric, how
// B's median stands against A's, judged by the rule in the
// choosing-metrics guide. A is the parent, B the change.
//
//	invalid     B's runs of the workload failed more answer checks than
//	            A's: none of its numbers counts, whatever they read
//	unresolved  either side's spread is wider than the metric's bound
//	worse       B's median is worse than A's by more than the bound
//	better      B wins at least nine tenths of the run pairs and the
//	            medians differ by more than A's own interquartile range
//	same        none of the above
//
// It exits 1 when any cell is worse or invalid.
func compareMain(manifestPath, aPath, bPath string) int {
	m, errs := loadManifest(manifestPath)
	if reportInvalid(errs) {
		return 1
	}
	var a, b summary
	for _, x := range []struct {
		path string
		into *summary
	}{{aPath, &a}, {bPath, &b}} {
		raw, err := os.ReadFile(x.path)
		if err == nil {
			err = json.Unmarshal(raw, x.into)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", x.path, err)
			return 1
		}
	}
	fmt.Printf("A: %s commit %s, %d runs, seed %d\nB: %s commit %s, %d runs, seed %d\n",
		aPath, a.Commit, a.Repeat, a.Seed, bPath, b.Commit, b.Repeat, b.Seed)
	if compareSummaries(os.Stdout, m, &a, &b) > 0 {
		return 1
	}
	return 0
}

// compareSummaries prints the table and returns how many cells were
// worse or invalid.
func compareSummaries(w io.Writer, m *manifest, a, b *summary) (bad int) {
	for _, wl := range sortedKeys(a.Runs) {
		if b.Runs[wl] == nil {
			continue
		}
		moreFailed := b.Failed[wl] > a.Failed[wl]
		fmt.Fprintf(w, "%s (failed ops over all runs: A %d, B %d)\n  %-14s %12s %12s %9s %8s %8s %6s  %s\n", wl, a.Failed[wl], b.Failed[wl],
			"metric", "A median", "B median", "delta", "spread A", "spread B", "bound", "verdict")
		for _, name := range sortedKeys(a.Runs[wl]) {
			av, bv := a.Runs[wl][name], b.Runs[wl][name]
			bound, lowerBetter, ok := m.bound(name)
			if !ok || len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, bound, lowerBetter)
			if moreFailed {
				v.verdict = "invalid"
			}
			if v.verdict == "worse" || v.verdict == "invalid" {
				bad++
			}
			fmt.Fprintf(w, "  %-14s %12.4f %12.4f %+8.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				name, v.medA, v.medB, 100*v.delta, 100*v.spreadA, 100*v.spreadB, 100*bound, v.verdict)
		}
	}
	return bad
}

type judgement struct {
	medA, medB       float64
	delta            float64 // (B-A)/A
	spreadA, spreadB float64
	verdict          string
}

// judge applies the comparison rule to one metric of one workload.
func judge(a, b []float64, bound float64, lowerBetter bool) judgement {
	j := judgement{medA: median(a), medB: median(b), spreadA: spreadFrac(a), spreadB: spreadFrac(b)}
	j.delta = (j.medB - j.medA) / j.medA
	worseBy := j.delta // positive when B is worse
	if !lowerBetter {
		worseBy = -j.delta
	}
	wins, pairs := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == b[i] {
			continue // a tie counts for neither
		}
		pairs++
		if (b[i] < a[i]) == lowerBetter {
			wins++
		}
	}
	q1, _, q3 := quartiles(a)
	switch {
	case j.spreadA > bound || j.spreadB > bound:
		j.verdict = "unresolved"
	case worseBy > bound:
		j.verdict = "worse"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(j.medB-j.medA) > q3-q1:
		j.verdict = "better"
	default:
		j.verdict = "same"
	}
	return j
}
