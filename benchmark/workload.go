package main

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"golake/internal/core"
)

// sizes fixes how much data each workload holds and how many ops a
// client plays per second of the -seconds budget. They are constants,
// chosen from op costs measured on a 2-core sandbox (see README.md), and
// never calibrated at run time: the same seed and -seconds always give
// the same op list, so a faster lake finishes it sooner instead of being
// handed more work.
type sizes struct {
	bigRows int // rows of each of serve_scan's two tables
	docs    int // documents in serve_scan's collection
	fedRows int // rows of each federate member's table

	ingestRows    int // rows per ingest_durable dataset
	ingestPreload int // datasets already in the lake when clients connect

	corpusTables int // curate_journey's maintained corpus
	corpusRows   int
	joinGroups   int

	// Ops per client per second of budget.
	serveRotations float64 // 8-slot rotations
	fedRotations   float64 // 8-slot rotations
	ingests        float64 // datasets posted
	journeys       float64 // client A's journeys

	// once makes every repeated measurement (set-up, reopen) happen a
	// single time: the smoke scale.
	once bool
}

var fullSizes = sizes{
	bigRows: 150_000, docs: 20_000, fedRows: 40_000,
	ingestRows: 1000, ingestPreload: 64,
	corpusTables: 40, corpusRows: 100, joinGroups: 8,
	serveRotations: 2.9, fedRotations: 1.25, ingests: 18, journeys: 15,
}

// smokeSizes is the 1/50 scale the tests and -validate run: every code
// path and every gate, none of the cost.
var smokeSizes = sizes{
	bigRows: 3000, docs: 400, fedRows: 400,
	ingestRows: 20, ingestPreload: 2,
	corpusTables: 16, corpusRows: 40, joinGroups: 4,
	serveRotations: 2, fedRotations: 2, ingests: 8, journeys: 4,
	once: true,
}

// env is what a workload's set-up is given.
type env struct {
	workdir string // scratch root; every lake directory is made below it
	seed    int64
	seconds float64
	sz      sizes
	clients int
}

// count turns a per-second rate into this run's op count.
func (e *env) count(perSecond float64) int {
	n := int(math.Round(perSecond * e.seconds))
	if n < 1 {
		n = 1
	}
	return n
}

// times is how often a measurement a workload wants n times is made.
func (e *env) times(n int) int {
	if e.sz.once || n < 1 {
		return 1
	}
	return n
}

func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// clientCount is the closed loop's width: two clients, never more than
// the machine has processors.
func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// fixture is a workload set up and ready to be measured.
type fixture struct {
	base    string   // root URL of the server the clients talk to
	warmup  []script // played once per client, untimed, as part of set-up
	scripts []script // the measured phase, one per client

	// probe says which op classes enter the latency sample; nil means all.
	probe func(class string) bool
	// verify runs after the phase with the server still up and returns
	// the checks made and their failures.
	verify func(ctx context.Context, c *client, res *phaseResult) (checks int, errs []error)
	// reopen names the lake directory the reopen measurement uses and
	// what that lake must still answer, given what the phase achieved.
	reopen func(res *phaseResult) (dir string, userBytes int64, chk reopenCheck)

	servers     []*httptest.Server
	deployments []*deployment
	dirs        []string
}

// stop takes the servers down and abandons every lake without Close:
// the backend handles are released so the files can be reopened, but no
// final checkpoint is written, as when the process dies.
func (f *fixture) stop() {
	for _, s := range f.servers {
		s.Close()
	}
	f.servers = nil
	for _, d := range f.deployments {
		_ = d.backend.Close()
	}
	f.deployments = nil
}

// remove deletes the fixture's lake directories.
func (f *fixture) remove() {
	for _, d := range f.dirs {
		_ = os.RemoveAll(d)
	}
}

// newLake makes a lake directory below the workdir and opens the
// deployment under test on it.
func (f *fixture) newLake(e *env, name string, extra ...core.Option) (*deployment, error) {
	dir, err := os.MkdirTemp(e.workdir, name+"-*")
	if err != nil {
		return nil, err
	}
	f.dirs = append(f.dirs, dir)
	d, err := openDeployment(filepath.Clean(dir), extra...)
	if err != nil {
		return nil, err
	}
	f.deployments = append(f.deployments, d)
	return d, nil
}

// serve starts a lake's HTTP surface on a loopback port.
func (f *fixture) serve(d *deployment) *httptest.Server {
	s := httptest.NewServer(d.lake.HTTPHandler())
	f.servers = append(f.servers, s)
	return s
}

// workload is one of the benchmark's traffic mixes.
type workload struct {
	name  string
	setup func(ctx context.Context, e *env) (*fixture, error)
	// readOnly says the measured phase leaves the lake's datasets as it
	// found them, so it can be played again on the same fixture.
	readOnly bool
	// reopens is how often the lake is reopened for reopen_s's median:
	// often enough that the reopens together take three seconds or more,
	// since a shorter measurement moves with the shared machine's speed
	// from one second to the next.
	reopens int
}

// setupRounds is how often set-up is repeated for setup_s's median.
const setupRounds = 3

var workloads = []workload{
	{name: "serve_scan", setup: setupServeScan, readOnly: true, reopens: 3},
	{name: "federate", setup: setupFederate, readOnly: true, reopens: 10},
	{name: "ingest_durable", setup: setupIngestDurable, reopens: 2},
	{name: "curate_journey", setup: setupCurateJourney, reopens: 3},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repeatOps returns n copies of the rotation, back to back.
func repeatOps(rotation []op, n int) []op {
	out := make([]op, 0, len(rotation)*n)
	for i := 0; i < n; i++ {
		out = append(out, rotation...)
	}
	return out
}
