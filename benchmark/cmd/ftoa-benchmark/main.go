// Command ftoa-benchmark is the repository's benchmark driver. One
// invocation runs one workload once and prints, as the last line of
// stdout, a JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0 (measured against a real ftoa-serve
// process), the per-layer metrics with --trace 1 (measured in-process,
// with spans). --repeat runs the whole suite several times and writes a
// noise ledger instead. It is normally started through ../../run.sh,
// which builds both binaries first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ftoa/benchmark/bench"
)

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := flag.Float64("seconds", 32, "measured seconds: half open-loop paced phase, half closed-loop saturation phase")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from the traced in-process run")
	serveBin := flag.String("serve-bin", "", "ftoa-serve binary built from the commit under test")
	outDir := flag.String("out-dir", "benchmark/out", "directory for traces, server logs and scratch data")
	repeat := flag.Int("repeat", 0, "run the suite (or just --workload) this many times, seeds 1..N, and write a noise ledger")
	ledger := flag.String("ledger", "", "with --repeat: where to write the ledger JSON")
	flag.Parse()

	// One driver thread: the benchmark must not take more of the machine
	// than the single-threaded server it measures.
	runtime.GOMAXPROCS(1)

	cfg := bench.Config{Seconds: *seconds, ServeBin: *serveBin, OutDir: *outDir, Log: os.Stderr}
	if *serveBin == "" {
		fatal(fmt.Errorf("--serve-bin is required (start the benchmark through benchmark/run.sh)"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *repeat > 0 {
		if *ledger == "" {
			*ledger = filepath.Join(*outDir, "ledger.json")
		}
		suite := bench.Workloads
		if *workload != "" {
			w, err := bench.FindWorkload(*workload)
			if err != nil {
				fatal(err)
			}
			suite = []bench.Workload{w}
		}
		if err := bench.RunLedger(cfg, suite, *repeat, *ledger); err != nil {
			fatal(err)
		}
		return
	}
	w, err := bench.FindWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	out, err := bench.Run(cfg, w, *seed, *trace != 0)
	if err != nil {
		fatal(err)
	}
	out.Print(os.Stderr)
	line, err := json.Marshal(out.Report())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftoa-benchmark:", err)
	os.Exit(2)
}
