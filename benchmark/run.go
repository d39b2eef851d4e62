package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The end-to-end metrics, what a user of the lake would see. Every
// workload reports all of them. BENCHMARK.json carries their direction
// and regression bound; -validate holds the two lists against each
// other.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"op_p50_ms":     "ms",
	"op_p95_ms":     "ms",
	"allocs_per_op": "count",
	"reopen_s":      "s",
	"disk_amp":      "ratio",
}

// result is the driver-facing outcome of one run: the last line of
// standard output, exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is a result plus what the human-readable report prints
// around it.
type runReport struct {
	workload string
	result
	probeSamples int
	classP50     map[string]float64 // per op class, ms
	classCount   map[string]int
	firstRowP50  float64 // ms, over ops that streamed rows
	setupTimes   []timing
	reopenTimes  []timing
	phaseWall    time.Duration
	errs         []error

	// What the clock read, before division by the machine's slowness
	// while it was read (see reference.go), and that slowness.
	raw        map[string]float64
	phaseSlow  float64
	setupSlow  []float64
	reopenSlow []float64
	stolen     float64 // share of the run's processor time the host took
}

// newRunReport is an empty report; until a reference says otherwise its
// phase ran at slowness 1, so timings read as the clock did.
func newRunReport(workload string) *runReport {
	rep := &runReport{workload: workload, raw: map[string]float64{}, phaseSlow: 1}
	rep.Metrics = map[string]metric{}
	return rep
}

func newClients(f *fixture, e *env, rec *recorder) []*client {
	cs := make([]*client, len(f.scripts))
	for i := range cs {
		cs[i] = newClient(f.base, users[i%len(users)].name)
		cs[i].rec = rec
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// setUp builds the workload's fixture and plays each client's warm-up,
// rounds times over; the last fixture is kept. Each round's time —
// corpus generation, lake open, preload, warm-up — is one setup_s
// sample.
func setUp(ctx context.Context, w workload, e *env, rec *recorder, rounds int) (*fixture, []*client, []timing, []sample, error) {
	var (
		f      *fixture
		cs     []*client
		times  []timing
		warmed []sample
	)
	for i := 0; i < rounds; i++ {
		if f != nil {
			closeClients(cs)
			f.stop()
			f.remove()
		}
		// Every round starts from a collected heap, so a round is not
		// charged for sweeping the one before it.
		runtime.GC()
		start := time.Now()
		var err error
		f, err = w.setup(ctx, e)
		if err != nil {
			if f != nil {
				f.stop()
				f.remove()
			}
			return nil, nil, nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		cs = newClients(f, e, rec)
		warmed = runPhase(ctx, cs, f.warmup).samples
		times = append(times, timing{start, time.Since(start)})
	}
	return f, cs, times, warmed, nil
}

// runWorkload measures one workload end to end: set-up, the phase, the
// after-phase checks, the reopen measurement. The reference runs beside
// all of it, and every timing is reported at reference speed.
func runWorkload(ctx context.Context, w workload, e *env) (*runReport, error) {
	ref := startReference()
	defer ref.stop()
	f, cs, setupTimes, warmed, err := setUp(ctx, w, e, nil, e.times(setupRounds))
	if err != nil {
		return nil, err
	}
	defer f.remove()
	rep := newRunReport(w.name)
	rep.setupTimes = setupTimes
	rep.countSamples(warmed)

	res := runPhase(ctx, cs, f.scripts)
	rep.phaseWall = res.wall
	rep.countSamples(res.samples)
	if f.verify != nil {
		checks, errs := f.verify(ctx, cs[0], &res)
		rep.Attempted += checks
		rep.Failed += len(errs)
		rep.errs = append(rep.errs, errs...)
	}
	closeClients(cs)
	dir, userBytes, chk := f.reopen(&res)
	f.stop()
	f.reopen, f.verify = nil, nil // they hold the abandoned lake

	n := e.times(w.reopens)
	reopenTimes, reopenFailed, diskAmp, rerr := measureReopen(ctx, dir, n, userBytes, chk)
	rep.reopenTimes = reopenTimes
	rep.Attempted += n
	rep.Failed += reopenFailed
	if rerr != nil {
		rep.errs = append(rep.errs, rerr)
	}

	rep.phaseSlow = ref.slowness(res.start, res.start.Add(res.wall))
	rep.summarize(&res, f.probe)
	rep.setupSlow = rep.setSections("setup_s", ref, setupTimes)
	rep.reopenSlow = rep.setSections("reopen_s", ref, reopenTimes)
	rep.stolen = ref.stolenShare()
	rep.set("disk_amp", diskAmp)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func (r *runReport) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
}

// setTiming reports a reading of the clock at reference speed: a time
// divided by the slowness it was taken under, a rate multiplied by it.
func (r *runReport) setTiming(name string, raw, slow float64, rate bool) {
	r.raw[name] = raw
	if rate {
		r.set(name, raw*slow)
	} else {
		r.set(name, raw/slow)
	}
}

// setSections reports the median of several timed sections, each at the
// reference speed of its own interval, and returns their slownesses.
func (r *runReport) setSections(name string, ref *reference, ts []timing) []float64 {
	var at, slow []float64
	for _, t := range ts {
		s := ref.slowness(t.start, t.start.Add(t.took))
		slow = append(slow, s)
		at = append(at, t.took.Seconds()/s)
	}
	r.set(name, median(at))
	return slow
}

func (r *runReport) countSamples(ss []sample) {
	for _, s := range ss {
		r.Attempted++
		if s.err != nil {
			r.Failed++
			r.errs = append(r.errs, s.err)
		}
	}
}

// summarize turns the phase's samples into the latency, throughput and
// allocation metrics.
func (r *runReport) summarize(res *phaseResult, probe func(string) bool) {
	var (
		lat      []float64
		firstRow []float64
		byClass  = map[string][]float64{}
	)
	// The probe sample in completion order, for the slices below.
	samples := append([]sample(nil), res.samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].done < samples[j].done })
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], ms(s.latency))
		if s.firstRow > 0 {
			firstRow = append(firstRow, ms(s.firstRow))
		}
		if probe == nil || probe(s.class) {
			lat = append(lat, ms(s.latency))
		}
	}
	r.probeSamples = len(lat)
	r.classP50 = map[string]float64{}
	r.classCount = map[string]int{}
	for c, v := range byClass {
		r.classP50[c] = median(v)
		r.classCount[c] = len(v)
	}
	r.firstRowP50 = median(firstRow)
	if len(lat) > 0 {
		r.setTiming("op_p50_ms", median(lat), r.phaseSlow, false)
		r.setTiming("op_p95_ms", slicedQuantile(lat, 0.95, tailSlices), r.phaseSlow, false)
	}
	// Throughput is every client's ops over the phase's wall time.
	r.setTiming("ops_per_s", float64(len(res.samples))/res.wall.Seconds(), r.phaseSlow, true)
	// Allocations are per probe op; on curate_journey the analyst's
	// allocations ride in the journey's figure, as its reads do in the
	// journey's latency.
	if len(lat) > 0 {
		r.set("allocs_per_op", float64(res.mallocs)/float64(len(lat)))
	}
}

// print writes the human-readable report of one run.
func (r *runReport) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %d ops attempted, %d failed; phase %.2fs at slowness %.3f; %d probe samples; timings at reference speed; the host took %.1f%% of the run's processor time\n",
		r.workload, r.Attempted, r.Failed, r.phaseWall.Seconds(), r.phaseSlow, r.probeSamples, 100*r.stolen)
	for _, n := range sortedKeys(r.Metrics) {
		m := r.Metrics[n]
		note := ""
		switch n {
		case "ops_per_s":
			note = fmt.Sprintf("  (all ops / phase wall time; clock read %.4f)", r.raw[n])
		case "op_p50_ms", "op_p95_ms":
			note = fmt.Sprintf("  (%d samples; clock read %.4f)", r.probeSamples, r.raw[n])
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups; clock read %s at slowness %s)", len(r.setupTimes), fmtTimings(r.setupTimes), fmtFloats(r.setupSlow))
		case "reopen_s":
			note = fmt.Sprintf("  (median of %d reopens; clock read %s at slowness %s)", len(r.reopenTimes), fmtTimings(r.reopenTimes), fmtFloats(r.reopenSlow))
		case "allocs_per_op":
			note = "  (mallocs over the phase / probe ops; client and server share the process)"
		}
		fmt.Fprintf(w, "  %-14s %12.4f %-5s%s\n", n, m.Value, m.Unit, note)
	}
	for _, c := range sortedKeys(r.classP50) {
		fmt.Fprintf(w, "  class %-20s p50 %10.3f ms  (%d ops)\n", c, r.classP50[c], r.classCount[c])
	}
	for i, err := range r.errs {
		if i == 10 {
			fmt.Fprintf(w, "  … %d more failures\n", len(r.errs)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED: %v\n", err)
	}
}

func fmtTimings(ts []timing) string {
	s := ""
	for i, t := range ts {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3fs", t.took.Seconds())
	}
	return s
}

func fmtFloats(vs []float64) string {
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", v)
	}
	return s
}
