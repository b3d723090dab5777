package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// tail records how the tail latency was taken: the median of the rounds'
// percentiles, or the percentile of all samples pooled.
type tail struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
	PerRound   bool    `json:"per_round"`
}

// record is everything one run reports; -out writes it as a JSON line and
// compare reads those lines back.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Env      env     `json:"env"`
	Result   result  `json:"result"`
	// EndToEnd holds the end-to-end metrics in every run; in a traced run,
	// set beside an untraced run's, they show the tracing overhead.
	EndToEnd   map[string]float64 `json:"end_to_end"`
	FailedFrac float64            `json:"failed_frac"`
	Runs       int                `json:"runs"`
	Rounds     int                `json:"rounds"`
	Tail       tail               `json:"tail"`
	// PerRound holds each round's rate, p50 and tail, in round order.
	PerRound  map[string][]float64 `json:"per_round"`
	SetupRuns []float64            `json:"setup_runs_s"`
	Problems  []string             `json:"problems,omitempty"`
	// Invalid says why the run's numbers must not be compared, although
	// its results were correct; compare skips such records.
	Invalid   string   `json:"invalid,omitempty"`
	Warnings  []string `json:"warnings,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func currentEnv() env {
	return env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

func (b *bench) record(r *run, layers map[string]float64) *record {
	t := r.t
	rec := &record{
		Workload: b.w.name, Seed: b.cfg.seed, Trace: b.tr != nil, Seconds: b.cfg.seconds,
		Env:        currentEnv(),
		EndToEnd:   b.endToEndValues(r),
		PerRound:   b.perRound(r),
		FailedFrac: ratio(int64(t.fails), int64(t.ops)),
		Runs:       t.runs,
		Tail: tail{Percentile: b.w.tail, Samples: len(t.lat), Beyond: beyond(len(t.lat), b.w.tail),
			PerRound: b.tailPerRound(r)},
		Rounds:    len(r.rounds),
		SetupRuns: r.setup,
		Problems:  r.problems,
		Layers:    layers,
	}
	if rec.Tail.Beyond < minBeyond {
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("latency_tail_ms: only %d samples beyond p%g (want %d)",
			rec.Tail.Beyond, 100*b.w.tail, minBeyond))
	}
	rec.Invalid = openLoopInvalid(b.w.loop(b.cfg), t.lag)
	defs, values := endToEnd, rec.EndToEnd
	if layers != nil {
		defs, values = perLayer, layers
	}
	rec.Result = result{
		Correct:   len(r.problems) == 0,
		Attempted: t.ops,
		Failed:    t.fails,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		rec.Result.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return rec
}

// maxLagMs is the open-loop validity limit: past it, the senders fell so far
// behind their schedule that the latencies charge their own stalls to the
// program.
const maxLagMs = 10

// openLoopInvalid returns why an open-loop run is invalid ("" if it is
// valid or not an open loop): its generator lag p99 exceeded maxLagMs.
func openLoopInvalid(l loop, lag []float64) string {
	if p99 := percentile(lag, 0.99); l.rate > 0 && p99 > maxLagMs {
		return fmt.Sprintf("open-loop generator lag p99 %.2f ms > %d ms", p99, maxLagMs)
	}
	return ""
}

// print writes the human-readable report of one run.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "wrtbench %s: seed %d, %g s measured, trace %v; nproc %d, GOMAXPROCS %d, %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion)
	if rec.Trace {
		fmt.Fprintln(w, "  end-to-end with tracing on (compare with an untraced run for the overhead):")
	}
	notes := map[string]string{
		"setup_s":         fmt.Sprintf("median of %d set-ups %s", len(rec.SetupRuns), fmtList(rec.SetupRuns)),
		"runs_per_s":      fmt.Sprintf("median of %d rounds; %d runs", rec.Rounds, rec.Runs),
		"latency_p50_ms":  fmt.Sprintf("median of %d rounds; n=%d", rec.Rounds, rec.Tail.Samples),
		"latency_tail_ms": fmt.Sprintf("p%g of all samples, n=%d, %d beyond", 100*rec.Tail.Percentile, rec.Tail.Samples, rec.Tail.Beyond),
	}
	if rec.Tail.PerRound {
		notes["latency_tail_ms"] = fmt.Sprintf("median of %d round p%gs; n=%d, %d beyond overall",
			rec.Rounds, 100*rec.Tail.Percentile, rec.Tail.Samples, rec.Tail.Beyond)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %14.6g %-7s %s\n", d.name, rec.EndToEnd[d.name], d.unit, notes[d.name])
	}
	fmt.Fprintf(w, "  %-18s %14.6g %-7s %d of %d ops\n", "failed_frac", rec.FailedFrac, "ratio", rec.Result.Failed, rec.Result.Attempted)
	if rec.Layers != nil {
		fmt.Fprintln(w, "  per-layer:")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, rec.Layers[d.name], d.unit)
		}
		fmt.Fprintf(w, "  spans: %s\n", rec.TraceFile)
	}
	if rec.Invalid != "" {
		fmt.Fprintf(w, "  INVALID (compare skips this run): %s\n", rec.Invalid)
	}
	for _, s := range rec.Warnings {
		fmt.Fprintf(w, "  warning: %s\n", s)
	}
	if len(rec.Problems) == 0 {
		fmt.Fprintln(w, "  checks: ok")
	}
	for _, s := range rec.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", s)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
