// Command perfbench is the repository's end-to-end benchmark. It builds
// one of three seeded workloads on the simulated machine, drives it
// through the public functions of the task, core, pager, ztier and hw
// packages, checks every byte it reads against a model, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are end to end: host (Go wall) time and
// virtual time read off the simulated clock (names starting virt_). With
// --trace 1 the run alternates untraced and traced episodes and reports
// per-layer metrics from the spans it records around each layer's calls.
//
//	bash perfbench/run.sh --workload paging-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: server-churn, paging-mix or fault-storm")
	seed := flag.Uint64("seed", baselineSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to keep running episodes")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	flag.Parse()

	wl := lookupWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(wl.procs)
	cfg := runConfig{
		wl:      wl,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		oracle:  new(oracle),
		out:     *out,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}
