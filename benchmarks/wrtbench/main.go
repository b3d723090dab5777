// Command wrtbench is the end-to-end benchmark of the simulator and its
// service stack. In one process it boots a coordinator in front of two
// store-backed workers plus one standalone server, all over loopback, and
// drives one of five workloads through the public client and the public
// local sweep API. It checks every result against a local reference and
// prints each end-to-end metric by name with its unit; the last line of
// standard output is a JSON object with the verdict and the metrics.
//
//	wrtbench --workload hits-hot --seed 1 --seconds 12 --trace 0
//	wrtbench --seed 1                      # every workload in turn
//	wrtbench --workload long-sim --trace 1 # per-layer metrics and a span file
//	wrtbench compare A.json... -- B.json... # apply BENCHMARK.json's bounds
//
// The exit status is non-zero when any check fails. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(compareMain(args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(args, defaultConfig(), workloads, os.Stdout, os.Stderr))
}

// benchMain runs the workloads the flags select from ws, with cfg as the
// starting configuration, and returns the exit status.
func benchMain(args []string, cfg config, ws []*workload, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wrtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: all of them in turn)")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the inputs: fresh seeds, pool membership, picks")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds per workload, split over the rounds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing a span file")
	fs.StringVar(&cfg.workDir, "workdir", cfg.workDir, "directory for the stores and span files")
	out := fs.String("out", "", "also append each run's full record as a JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "wrtbench: --trace takes 0 or 1, --seconds must be positive, and no positional arguments are accepted")
		return 2
	}
	selected := ws
	if *name != "" {
		selected = nil
		for _, w := range ws {
			if w.name == *name {
				selected = []*workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "wrtbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(ws), ", "))
			return 2
		}
	}
	runtime.GOMAXPROCS(2)

	code := 0
	for _, w := range selected {
		rec, err := runWorkload(cfg, w, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "wrtbench %s: %v\n", w.name, err)
			return 1
		}
		rec.print(stdout)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(stderr, "wrtbench: writing %s: %v\n", *out, err)
				return 1
			}
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fmt.Fprintf(stderr, "wrtbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rec.Result.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames(ws []*workload) []string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return names
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
