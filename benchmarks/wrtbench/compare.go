package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkSpec is BENCHMARK.json: the command, the workloads and every
// metric, with each end-to-end metric's regression bound (a share of the
// parent's median).
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict compares one metric on one workload between two sets of runs.
type verdict struct {
	a, b   [3]float64 // quartiles: q1, median, q3
	na, nb int
	change float64 // B's median relative to A's, signed so that > 0 is worse
	result string  // ok | regressed | unresolved
}

// judge applies a bound. Where either side's spread — the distance between
// its quartiles, as a share of its median — is wider than the bound, the
// medians' difference cannot be told from noise in either direction: the
// metric is unresolved unless the two sets do not overlap. Otherwise, and
// for sets that do not overlap, B regressed when its median is worse than
// A's by more than bound (a share of A's median).
func judge(a, b []float64, bound float64, better string) verdict {
	v := verdict{na: len(a), nb: len(b)}
	v.a[0], v.a[1], v.a[2] = quartiles(a)
	v.b[0], v.b[1], v.b[2] = quartiles(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if v.a[1] != 0 {
		v.change = sign * (v.b[1] - v.a[1]) / v.a[1]
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / q[1]
	}
	separated := len(a) > 0 && len(b) > 0 &&
		(slices.Min(b) > slices.Max(a) || slices.Max(b) < slices.Min(a))
	switch {
	case (spread(v.a) > bound || spread(v.b) > bound) && !separated:
		v.result = "unresolved"
	case v.change > bound:
		v.result = "regressed"
	default:
		v.result = "ok"
	}
	return v
}

// readRecords loads the run records (JSON lines written by --out) from
// files. Traced runs are skipped, their end-to-end numbers carry tracing
// overhead; so are invalid runs, which it counts.
func readRecords(files []string) (out []*record, invalid int, err error) {
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		for sc.Scan() {
			var rec record
			switch {
			case json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" || rec.Trace:
			case rec.Invalid != "":
				invalid++
			default:
				out = append(out, &rec)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
	}
	return out, invalid, nil
}

// compareMain is `wrtbench compare [-bench BENCHMARK.json] A... -- B...`:
// for every end-to-end metric and workload it prints each side's median
// and quartiles and a verdict, and exits 1 when anything regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep < 1 || sep == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: wrtbench compare [-bench BENCHMARK.json] A.json... -- B.json...")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err == nil {
		err = compare(spec, rest[:sep], rest[sep+1:], stdout)
	}
	switch {
	case errors.Is(err, errRegressed):
		return 1
	case err != nil:
		fmt.Fprintf(stderr, "wrtbench compare: %v\n", err)
		return 2
	}
	return 0
}

var errRegressed = errors.New("regressed")

func compare(spec *benchmarkSpec, filesA, filesB []string, w io.Writer) error {
	a, invalidA, err := readRecords(filesA)
	if err != nil {
		return err
	}
	b, invalidB, err := readRecords(filesB)
	if err != nil {
		return err
	}
	if invalidA+invalidB > 0 {
		fmt.Fprintf(w, "skipped invalid runs: %d of A, %d of B\n", invalidA, invalidB)
	}
	values := func(recs []*record, workload, name string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == workload {
				out = append(out, r.EndToEnd[name])
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-12s %-17s %30s %30s %8s %6s  %s\n", "workload", "metric",
		"A median [q1 q3] (n)", "B median [q1 q3] (n)", "change", "bound", "verdict")
	regressed := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m.Bound, m.Better)
			regressed = regressed || v.result == "regressed"
			side := func(q [3]float64, n int) string {
				return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", q[1], q[0], q[2], n)
			}
			fmt.Fprintf(w, "%-12s %-17s %30s %30s %+7.1f%% %5.0f%%  %s\n", wl.Name, m.Name,
				side(v.a, v.na), side(v.b, v.nb), 100*v.change, 100*m.Bound, v.result)
		}
	}
	if regressed {
		return errRegressed
	}
	return nil
}
