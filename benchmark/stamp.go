package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// printStamp records what the numbers below it were measured on.
func printStamp(w io.Writer, e *env, manifestPath string) {
	fmt.Fprintf(w, "golake benchmark: commit %s, %s, GOMAXPROCS %d, nproc %d, cpu %q, seed %d, seconds %g, clients %d (closed loop)\n",
		commit(manifestPath), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), e.seed, e.seconds, e.clients)
	fmt.Fprintf(w, "deployment: %s\n", deploymentStamp)
}

// commit reads the checked-out commit from the .git directory beside
// BENCHMARK.json, without running git. The driver's checkout is not a
// repository, so "unknown" is a normal answer.
func commit(manifestPath string) string {
	manifestPath, err := findManifest(manifestPath)
	if err != nil {
		return "unknown"
	}
	git := filepath.Join(filepath.Dir(manifestPath), ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	id := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(id, "ref: "); ok {
		id = ""
		if b, err := os.ReadFile(filepath.Join(git, filepath.FromSlash(ref))); err == nil {
			id = strings.TrimSpace(string(b))
		} else if packed, err := os.ReadFile(filepath.Join(git, "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					id = sha
				}
			}
		}
	}
	if id == "" {
		return "unknown"
	}
	if len(id) > 12 {
		id = id[:12]
	}
	return id
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
