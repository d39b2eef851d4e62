package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// manifest is BENCHMARK.json: exactly the keys the driver's contract
// names, nothing more.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRe = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// findManifest resolves the -manifest flag: the file named, else
// BENCHMARK.json here or one directory up (go run from benchmark/).
func findManifest(path string) (string, error) {
	if path != "" {
		return path, nil
	}
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found here or one directory up; pass -manifest")
}

// loadManifest reads and validates the manifest. Every problem found is
// reported, not just the first.
func loadManifest(path string) (*manifest, []error) {
	path, err := findManifest(path)
	if err != nil {
		return nil, []error{err}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, []error{err}
	}
	return parseManifest(raw)
}

func parseManifest(raw []byte) (*manifest, []error) {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if len(raw) > 64<<10 {
		bad("manifest is %d bytes, limit 65536", len(raw))
	}
	// Exactly the contract's keys: unknown ones are refused by the
	// decoder, missing ones by the presence check.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return nil, []error{fmt.Errorf("manifest is not a JSON object: %w", err)}
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			bad("manifest lacks key %q", k)
		}
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, append(errs, fmt.Errorf("manifest: %w", err))
	}

	if n := len(m.Command); n < 1 || n > 32 {
		bad("command has %d strings, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 {
			bad("command string %.20q… is longer than 200", c)
		}
		if strings.HasPrefix(c, "/") || hasDotDot(c) {
			bad("command string %q is absolute or leaves the repo", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		bad("paths has %d entries, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRe.MatchString(p) || strings.HasPrefix(p, "/") || hasDotDot(p) {
			bad("path %q is not a relative path of letters, digits, _ . - /", p)
		}
	}
	// Any command string that looks like a path must lie under paths.
	for _, c := range m.Command {
		if !strings.Contains(c, "/") {
			continue
		}
		under := false
		for _, p := range m.Paths {
			if c == p || strings.HasPrefix(c, strings.TrimSuffix(p, "/")+"/") {
				under = true
			}
		}
		if !under {
			bad("command names %q, which is outside paths %v", c, m.Paths)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		bad("run_seconds is %d, want 1..60", m.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRe.MatchString(n) {
			bad("%s name %q does not match %s", kind, n, nameRe)
		}
		if seen[n] {
			bad("name %q is used more than once", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != "lower" && better != "higher" {
			bad("metric %s: better is %q, want lower or higher", n, better)
		}
	}
	unit := func(n, u string) {
		if !unitRe.MatchString(u) {
			bad("metric %s: unit %q does not match %s", n, u, unitRe)
		}
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			bad("workload %s: why must be one line of 1..200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		bad("%d end_to_end metrics, want 1..16", n)
	}
	haveSetup := false
	for _, e := range m.EndToEnd {
		name("end_to_end", e.Name)
		unit(e.Name, e.Unit)
		direction(e.Name, e.Better)
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			bad("metric %s: bound must be in (0, 0.25]", e.Name)
		}
		if e.Name == "setup_s" {
			haveSetup = true
			if e.Unit != "s" || e.Better != "lower" {
				bad("setup_s must have unit s and better lower")
			}
		}
	}
	if !haveSetup {
		bad("end_to_end lacks setup_s")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		bad("%d per_layer metrics, want 1..128", n)
	}
	for _, p := range m.PerLayer {
		name("per_layer", p.Name)
		unit(p.Name, p.Unit)
		direction(p.Name, p.Better)
	}
	return &m, errs
}

func hasDotDot(p string) bool {
	for _, seg := range strings.Split(p, "/") {
		if seg == ".." {
			return true
		}
	}
	return false
}

// bound returns the regression bound of an end-to-end metric and which
// direction is better.
func (m *manifest) bound(name string) (bound float64, lowerBetter, ok bool) {
	for _, e := range m.EndToEnd {
		if e.Name == name && e.Bound != nil {
			return *e.Bound, e.Better == "lower", true
		}
	}
	return 0, false, false
}

// againstCode holds the manifest against what the benchmark's code
// runs and emits: the same workloads, the same metric names with the
// same units, in both directions.
func (m *manifest) againstCode() []error {
	loads, code := map[string]string{}, map[string]string{}
	for _, w := range m.Workloads {
		loads[w.Name] = ""
	}
	for _, w := range workloads {
		code[w.name] = ""
	}
	errs := diffUnits("workload", loads, code)
	errs = append(errs, diffUnits("end_to_end metric", m.endToEndUnits(), endToEndUnits)...)
	return append(errs, diffUnits("per_layer metric", m.perLayerUnits(), perLayerUnits)...)
}

func (m *manifest) endToEndUnits() map[string]string {
	out := map[string]string{}
	for _, e := range m.EndToEnd {
		out[e.Name] = e.Unit
	}
	return out
}

func (m *manifest) perLayerUnits() map[string]string {
	out := map[string]string{}
	for _, p := range m.PerLayer {
		out[p.Name] = p.Unit
	}
	return out
}

// diffUnits compares name → unit as the manifest lists them with what
// the benchmark has, in both directions.
func diffUnits(kind string, inManifest, inBenchmark map[string]string) []error {
	var errs []error
	for _, n := range sortedKeys(inManifest) {
		switch bu, ok := inBenchmark[n]; {
		case !ok:
			errs = append(errs, fmt.Errorf("%s %s is in the manifest but the benchmark does not emit it", kind, n))
		case bu != inManifest[n]:
			errs = append(errs, fmt.Errorf("%s %s: manifest unit %q, benchmark emits %q", kind, n, inManifest[n], bu))
		}
	}
	for _, n := range sortedKeys(inBenchmark) {
		if _, ok := inManifest[n]; !ok {
			errs = append(errs, fmt.Errorf("%s %s is emitted by the benchmark but missing from the manifest", kind, n))
		}
	}
	return errs
}

// emittedUnits is name → unit of what one run actually printed.
func emittedUnits(got map[string]metric) map[string]string {
	out := map[string]string{}
	for n, m := range got {
		out[n] = m.Unit
	}
	return out
}

// reportInvalid prints manifest problems and says whether there were any.
func reportInvalid(errs []error) bool {
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "invalid:", err)
	}
	return len(errs) > 0
}

// validateMain is -validate: the manifest must satisfy the contract,
// match the code, and match what a smoke run of every workload and of
// the traced run actually emits.
func validateMain(ctx context.Context, path string) int {
	m, errs := loadManifest(path)
	if m != nil {
		errs = append(errs, m.againstCode()...)
	}
	if m != nil && len(errs) == 0 {
		errs = append(errs, smokeAgainst(ctx, m)...)
	}
	if reportInvalid(errs) {
		return 1
	}
	fmt.Printf("BENCHMARK.json is valid: %d workloads, %d end-to-end metrics, %d per-layer metrics; a smoke run emits exactly these names\n",
		len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	return 0
}

// smokeAgainst runs every workload and one traced run at smoke scale and
// compares the emitted metric names with the manifest. A failed
// correctness gate is an error too.
func smokeAgainst(ctx context.Context, m *manifest) []error {
	dir, cleanup, err := scratchDir("")
	if err != nil {
		return []error{err}
	}
	defer cleanup()
	e := &env{workdir: dir, seed: 1, seconds: 1, sz: smokeSizes, clients: clientCount()}
	var errs []error
	for _, w := range workloads {
		rep, err := runWorkload(ctx, w, e)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		errs = append(errs, diffUnits(w.name+" smoke run: end_to_end metric", m.endToEndUnits(), emittedUnits(rep.Metrics))...)
		for _, ferr := range rep.errs {
			errs = append(errs, fmt.Errorf("%s smoke run: %w", w.name, ferr))
		}
	}
	tr, err := runTrace(ctx, workloads[0], e, filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return append(errs, err)
	}
	errs = append(errs, diffUnits("traced smoke run: per_layer metric", m.perLayerUnits(), emittedUnits(tr.Metrics))...)
	for _, ferr := range tr.errs {
		errs = append(errs, fmt.Errorf("traced smoke run: %w", ferr))
	}
	return errs
}
