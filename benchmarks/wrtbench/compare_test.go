package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func TestJudgeBounds(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102, 98, 100}
	wide := []float64{70, 100, 130, 85, 115, 100, 95}
	for _, c := range []struct {
		name   string
		a, b   []float64
		bound  float64
		better string
		want   string
	}{
		{"slower within bound", tight, scaled(tight, 1.05), 0.10, "lower", "ok"},
		{"slower past bound", tight, scaled(tight, 1.2), 0.10, "lower", "regressed"},
		{"faster", tight, scaled(tight, 0.7), 0.10, "lower", "ok"},
		{"throughput drop past bound", tight, scaled(tight, 0.8), 0.10, "higher", "regressed"},
		{"throughput drop within bound", tight, scaled(tight, 0.95), 0.10, "higher", "ok"},
		{"spread wider than bound", wide, scaled(wide, 1.02), 0.10, "lower", "unresolved"},
		{"wide but every run wins", wide, scaled(wide, 0.3), 0.10, "lower", "ok"},
		// A wide metric whose sets overlap says nothing in either direction:
		// the same two sets are unresolved whichever side is A.
		{"wide, median worse past bound, sets overlap", wide, scaled(wide, 1.3), 0.10, "lower", "unresolved"},
		{"the same sets swapped", scaled(wide, 1.3), wide, 0.10, "lower", "unresolved"},
		{"wide but every run loses", wide, scaled(wide, 3), 0.10, "lower", "regressed"},
	} {
		if got := judge(c.a, c.b, c.bound, c.better).result; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads":[{"name":"w","why":"x"}],
		"end_to_end":[{"name":"runs_per_s","unit":"runs/s","better":"higher","bound":0.1}]}`
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vals ...float64) string {
		var buf bytes.Buffer
		for _, v := range vals {
			rec := record{Workload: "w", EndToEnd: map[string]float64{"runs_per_s": v}}
			if v < 50 { // stands for a run whose generator fell behind
				rec.Invalid = "open-loop generator lag p99 30.00 ms > 10 ms"
			}
			line, _ := json.Marshal(rec)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("a.json", 100, 101, 99, 100, 102)
	same := write("b.json", 99, 100, 101, 100, 100)
	worse := write("c.json", 80, 81, 79, 80, 82)
	// Five valid runs like the parent's, and five invalid ones that would
	// drag the median far past the bound if they counted.
	withInvalid := write("d.json", 99, 10, 100, 10, 101, 10, 100, 10, 100, 10)

	var out bytes.Buffer
	if code := compareMain([]string{"-bench", specPath, parent, "--", same}, &out, &out); code != 0 || !strings.Contains(out.String(), " ok") {
		t.Errorf("same commit: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-bench", specPath, parent, "--", worse}, &out, &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("20%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-bench", specPath, parent, "--", withInvalid}, &out, &out); code != 0 ||
		!strings.Contains(out.String(), "skipped invalid runs: 0 of A, 5 of B") || !strings.Contains(out.String(), "(5)") {
		t.Errorf("invalid runs must be skipped: exit %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json at the repository root
// in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Command, []string{"bash", "benchmarks/wrtbench/run.sh"}) ||
		!slices.Equal(spec.Paths, []string{"benchmarks/wrtbench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, got, w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		if got.Name == "setup_s" {
			setupBound = got.Bound
		}
		maxBound = max(maxBound, got.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}
