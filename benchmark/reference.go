package main

import (
	"bytes"
	"hash/crc32"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machine this benchmark runs on is a few cores of a shared host,
// and those cores change speed under it: a neighbour on a core's other
// hardware thread, or on its cache, slows everything the lake does by a
// quarter to a third for minutes at a time, with no steal time reported.
// Ten runs of the same code then spread by the machine's weather, not by
// anything in the code. So every run also measures the machine: a
// reference goroutine plays two small fixed pieces of work of the
// benchmark's own — nothing of golake's is in them — every few
// milliseconds for as long as the run lasts, and every timing the run
// reports is divided by how much slower than nominal the reference ran
// while that timing was taken. A timing thus reads "at reference speed".
// The raw reading and the factor are printed beside it.

// One reference sample: when it was taken, how long each kernel took,
// and the machine's processor time so far, run and stolen.
type refSample struct {
	at         time.Time
	alloc, mix time.Duration
	ticks      cpuTicks
}

// cpuTicks is processor time summed over the machine's cores since it
// started, in clock ticks: spent running (this process is all that runs
// here) and stolen — the host ran someone else while a core of ours had
// work to do.
type cpuTicks struct {
	busy, stolen uint64
}

// readCPUTicks takes the two from the first line of /proc/stat. Where
// there is no such file both stay 0 and no time counts as stolen.
func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	return parseCPUTicks(string(line))
}

// parseCPUTicks reads "cpu user nice system idle iowait irq softirq
// steal ...".
func parseCPUTicks(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	n := func(i int) uint64 { v, _ := strconv.ParseUint(f[i], 10, 64); return v }
	return cpuTicks{busy: n(1) + n(2) + n(3) + n(6) + n(7), stolen: n(8)}
}

const (
	// refEvery is the sampling period. The two kernels take about
	// 0.15 ms together, so the reference costs the run 1.5 % of one core.
	refEvery = 10 * time.Millisecond
	// About what the kernels take on the sandbox: it reads 0.9 on a fast
	// hour and 1.3 on a slow one. Only ratios between runs matter.
	refAllocNominal = 40 * time.Microsecond
	refMixNominal   = 100 * time.Microsecond
)

// refWork is the reference's fixed work and the memory it runs over.
type refWork struct {
	a, b []byte
	keys []string
	m    map[string]int
	buf  []byte
	held [][]byte
	sum  uint64
}

func newRefWork() *refWork {
	w := &refWork{a: make([]byte, 256<<10), b: make([]byte, 256<<10), m: map[string]int{}, buf: make([]byte, 0, 64)}
	for i := range w.a {
		w.a[i] = byte(i * 7)
	}
	for i := 0; i < 512; i++ {
		k := "key" + strconv.Itoa(i*7919)
		w.keys = append(w.keys, k)
		w.m[k] = i
	}
	return w
}

// shuffle moves half a megabyte and checksums part of it: both kernels
// start with it, so both feel a busy cache.
func (w *refWork) shuffle() {
	copy(w.b, w.a)
	w.sum += uint64(crc32.ChecksumIEEE(w.b[:64<<10]))
}

// allocKernel is bound by memory and the allocator: the copies and 200
// small allocations, the kind a row or a JSON token costs.
func (w *refWork) allocKernel() time.Duration {
	start := time.Now()
	w.shuffle()
	w.held = w.held[:0]
	for i := 0; i < 200; i++ {
		w.held = append(w.held, make([]byte, 96))
	}
	copy(w.a, w.b)
	return time.Since(start)
}

// mixKernel adds what serializing and looking up cost: the copies, then
// a thousand integers formatted, strings quoted and map keys found,
// without allocating.
func (w *refWork) mixKernel() time.Duration {
	start := time.Now()
	w.shuffle()
	n := 0
	for i := 0; i < 1000; i++ {
		w.buf = strconv.AppendInt(w.buf[:0], 1_000_000_007+int64(i)*104729, 10)
		w.buf = strconv.AppendQuote(w.buf, w.keys[i&511])
		n += w.m[w.keys[(i*31)&511]] + len(w.buf)
	}
	w.sum += uint64(n)
	copy(w.a, w.b)
	return time.Since(start)
}

// reference samples the machine's speed in the background of a run.
type reference struct {
	mu      sync.Mutex
	samples []refSample
	done    chan struct{}
	wg      sync.WaitGroup
}

func startReference() *reference {
	r := &reference{done: make(chan struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		w := newRefWork()
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-t.C:
				s := refSample{at: time.Now(), ticks: readCPUTicks()}
				s.alloc = w.allocKernel()
				s.mix = w.mixKernel()
				r.mu.Lock()
				r.samples = append(r.samples, s)
				r.mu.Unlock()
			}
		}
	}()
	return r
}

func (r *reference) stop() {
	close(r.done)
	r.wg.Wait()
}

// minTicks is the least processor time an interval must have run for
// before the stolen share of it is believed: /proc/stat counts in ticks
// of 10 ms, and a fraction of a second holds too few of them.
const minTicks = 100

// slowness says how much slower than nominal the machine ran between
// from and to. Two things slow it. While our code runs, a neighbour on
// the core's other hardware thread or on its cache makes it run slower:
// that is the geometric mean of the two kernels' median times over their
// nominal ones — the median, which ignores the samples a collection or a
// descheduling landed on. And the host takes the core away altogether:
// that is processor time run plus stolen over time run, between the
// interval's first and last sample. The two multiply. An interval too
// short to hold three samples, or to have run for minTicks, borrows the
// whole run's; a run without any reads 1.
func (r *reference) slowness(from, to time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.samples[:0:0]
	for _, s := range r.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			in = append(in, s)
		}
	}
	if len(in) < 3 {
		in = r.samples
	}
	if len(in) == 0 {
		return 1
	}
	alloc, mix := make([]float64, len(in)), make([]float64, len(in))
	for i, s := range in {
		alloc[i], mix[i] = float64(s.alloc), float64(s.mix)
	}
	slow := math.Sqrt(median(alloc) / float64(refAllocNominal) * median(mix) / float64(refMixNominal))
	stolen, ok := stolenFactor(in)
	if !ok {
		stolen, _ = stolenFactor(r.samples)
	}
	return slow * stolen
}

// stolenFactor is processor time run plus stolen over time run, between
// the first and the last of the samples; not ok, and 1, when they ran
// for less than minTicks.
func stolenFactor(in []refSample) (float64, bool) {
	first, last := in[0].ticks, in[len(in)-1].ticks
	ran := last.busy - first.busy
	if ran < minTicks {
		return 1, false
	}
	return float64(ran+last.stolen-first.stolen) / float64(ran), true
}

// stolenShare is the share of the processor time the run wanted that the
// host gave to someone else, over all samples so far.
func (r *reference) stolenShare() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	f, _ := stolenFactor(r.samples)
	return 1 - 1/f
}

// timing is one timed section of a run: when it began and how long it
// took.
type timing struct {
	start time.Time
	took  time.Duration
}
