// Command ftoa-bench reproduces the paper's experiments. Run with -list to
// see experiment ids, -exp to run one, -all for everything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ftoa/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids")
		scale    = flag.Float64("scale", 1.0, "population scale factor (1.0 = paper scale)")
		mode     = flag.String("mode", "assume-guide", "validation mode: assume-guide (paper counting) or strict (simulated movement, rechecked deadlines)")
		skipOPT  = flag.Bool("skip-opt", false, "omit the OPT series")
		seed     = flag.Uint64("seed", 0, "workload seed offset")
		parallel = flag.Int("parallel", 0, "worker pool size for sweep rows and per-row algorithms (0 = sequential, -1 = GOMAXPROCS); parallel runs leave Memory unmeasured and print it as -")
		timing   = flag.String("timing", "", "write per-experiment wall-clock timings as JSON to this file (- for stdout; the result tables then move to stderr so stdout stays machine-readable)")
	)
	flag.Parse()

	opts := experiments.Options{Scale: *scale, SkipOPT: *skipOPT, Seed: *seed, Parallelism: *parallel}
	switch *mode {
	case "strict":
		opts.Strict = true
	case "assume-guide":
		opts.Strict = false
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}

	var ids []string
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	case *all:
		ids = experiments.IDs()
	case *exp != "":
		if _, ok := experiments.Lookup(*exp); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	default:
		flag.Usage()
		os.Exit(2)
	}

	tables := os.Stdout
	if *timing == "-" {
		// Keep stdout pure JSON so `ftoa-bench -timing - | jq .` works.
		tables = os.Stderr
	}
	timings, err := experiments.Run(ids, opts, tables)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *timing != "" {
		if err := writeTimings(*timing, timings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeTimings emits the machine-readable per-experiment timing JSON that
// future runs can diff for a perf trajectory.
func writeTimings(path string, timings []experiments.Timing) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(timings)
}
