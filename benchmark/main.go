// Command benchmark is golake's benchmark: four client-view workloads
// over loopback HTTP against a durable lake, seven end-to-end metrics per
// workload, and — in a separate traced run — per-layer metrics taken by
// timing calls into each package's public functions from outside.
//
// The driver runs it through run.sh as
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed         = flag.Int64("seed", 1, "seed the inputs are generated from")
		secs         = flag.Float64("seconds", 20, "budget the measured phase's fixed op list is sized for")
		trace        = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		workdir      = flag.String("workdir", "", "directory for lake files and span files (default: a fresh temp dir)")
		manifest     = flag.String("manifest", "", "path of BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
		smoke        = flag.Bool("smoke", false, "run every workload and the traced run at 1/50 scale")
		validate     = flag.Bool("validate", false, "check BENCHMARK.json against the contract and against a -smoke run")
		repeat       = flag.Int("repeat", 1, "run each workload N times, alternating order, and report medians and spread")
		compare      = flag.Bool("compare", false, "compare two -repeat summaries: -compare A.json B.json")
		out          = flag.String("out", "", "file for the span log (-trace 1) or the summary (-repeat)")
	)
	flag.Parse()
	ctx := context.Background()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareMain(*manifest, flag.Arg(0), flag.Arg(1))
	}
	if *validate {
		return validateMain(ctx, *manifest)
	}

	dir, cleanup, err := scratchDir(*workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer cleanup()
	e := &env{workdir: dir, seed: *seed, seconds: *secs, sz: fullSizes, clients: clientCount()}
	if *smoke {
		e.sz, e.seconds = smokeSizes, 1
	}
	printStamp(os.Stdout, e, *manifest)

	if *repeat > 1 {
		return repeatMain(ctx, e, *manifest, *workloadName, *repeat, *out)
	}
	names := []string{*workloadName}
	if *workloadName == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	status := 0
	for _, name := range names {
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
			return 2
		}
		var res result
		if *trace != 0 {
			tr, err := runTrace(ctx, w, e, *out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			tr.print(os.Stdout)
			res = tr.result
		} else {
			rep, err := runWorkload(ctx, w, e)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			rep.print(os.Stdout)
			res = rep.result
		}
		if !res.Correct {
			status = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	return status
}

// scratchDir resolves where lake directories go: under workdir when
// given (run.sh passes the checkout's .bench_build/work), else a fresh
// directory in the system's temp space. Either way each run works in a
// directory of its own and removes it on exit.
func scratchDir(workdir string) (string, func(), error) {
	if workdir != "" {
		if err := os.MkdirAll(workdir, 0o755); err != nil {
			return "", nil, err
		}
	}
	dir, err := os.MkdirTemp(workdir, "golake-bench-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}
