package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// traceReport is the outcome of a traced run: every per-layer metric,
// and where the spans went.
type traceReport struct {
	result
	workload string
	notes    map[string]string
	spans    int
	spanFile string
	errs     []error
}

// runTrace is the traced run. Whatever workload it is asked for, it
// prices every layer — the driver expects every per-layer metric from
// every traced run — by building each workload's fixture once and
// calling into the layers that workload exercises. The workload argument
// picks whose measured phase is rerun with the span recorder on the
// clients, for trace.overhead_frac. Spans are kept in memory and written
// out at the end.
func runTrace(ctx context.Context, w workload, e *env, out string) (*traceReport, error) {
	rec := &recorder{}
	m := newLayerMetrics()
	// A traced run prices calls, not a phase: past ten seconds of budget
	// it gains nothing, so it does not grow with -seconds beyond that.
	if e.seconds > 10 {
		capped := *e
		capped.seconds = 10
		e = &capped
	}
	// Sample sizes follow the budget: 3 ops per class and second, 30 ops
	// per class at ten seconds.
	perClass := int(math.Round(3 * e.seconds))
	if perClass < 3 {
		perClass = 3
	}
	grown := 340
	if e.sz.corpusTables < fullSizes.corpusTables {
		grown = 3 * e.sz.corpusTables // smoke scale
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"serve_scan layers", func() error { return layersServe(ctx, e, m, rec, perClass) }},
		{"admission and obs", func() error { return layersAdmissionObs(ctx, e, m) }},
		{"ingest_durable layers", func() error { return layersIngest(ctx, e, m, perClass) }},
		{"federate layers", func() error { return layersFed(ctx, e, m, perClass) }},
		{"curate_journey layers", func() error { return layersCurate(ctx, e, m, perClass/3+1, grown) }},
		{"trace overhead", func() error { return traceOverhead(ctx, w, e, m, rec) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("traced run, %s: %w", s.name, err)
		}
	}
	tr := &traceReport{workload: w.name, notes: m.notes, errs: m.errs, spans: len(rec.spans)}
	tr.Metrics = m.vals
	tr.Attempted = m.attempted
	tr.Failed = len(m.errs)
	tr.Correct = tr.Failed == 0
	tr.spanFile = out
	if tr.spanFile == "" {
		// Beside the run's scratch directory, which is removed on exit.
		tr.spanFile = filepath.Join(filepath.Dir(e.workdir), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, e.seed))
	}
	if err := rec.writeTo(tr.spanFile); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return tr, nil
}

// traceOverhead reruns a shortened phase of the workload twice, once
// plain and once with the span recorder attached to the clients, and
// reports how much slower the recorded one ran. Informational: both are
// short, so the figure is noisy around zero.
func traceOverhead(ctx context.Context, w workload, e *env, m *layerMetrics, rec *recorder) error {
	short := *e
	short.seconds = e.seconds / 4
	// rates plays the phase once per recorder given, on one fixture.
	rates := func(recs ...*recorder) ([]float64, error) {
		f, cs, _, _, err := setUp(ctx, w, &short, nil, 1)
		if err != nil {
			return nil, err
		}
		defer f.remove()
		defer f.stop()
		defer closeClients(cs)
		var out []float64
		for _, r := range recs {
			for _, c := range cs {
				c.rec = r
			}
			res := runPhase(ctx, cs, f.scripts)
			for _, s := range res.samples {
				m.did(s.err)
			}
			out = append(out, float64(len(res.samples))/res.wall.Seconds())
		}
		return out, nil
	}
	var plain, traced float64
	if w.readOnly {
		// A read-only phase can be played twice on one fixture.
		both, err := rates(nil, rec)
		if err != nil {
			return err
		}
		plain, traced = both[0], both[1]
	} else {
		one, err := rates(nil)
		if err != nil {
			return err
		}
		two, err := rates(rec)
		if err != nil {
			return err
		}
		plain, traced = one[0], two[0]
	}
	m.set("trace.overhead_frac", plain/traced-1, "%s phase at 1/4 length: %.1f ops/s plain, %.1f ops/s with spans recorded", w.name, plain, traced)
	return nil
}

func (t *traceReport) print(w io.Writer) {
	fmt.Fprintf(w, "traced run (overhead measured on %s): %d checked calls, %d failed; %d spans written to %s\n",
		t.workload, t.Attempted, t.Failed, t.spans, t.spanFile)
	for _, n := range sortedKeys(t.Metrics) {
		mm := t.Metrics[n]
		fmt.Fprintf(w, "  %-36s %16.4f %-6s %s\n", n, mm.Value, mm.Unit, t.notes[n])
	}
	for i, err := range t.errs {
		if i == 10 {
			fmt.Fprintf(w, "  … %d more failures\n", len(t.errs)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	}
}
