package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at toy scale, traced, and holds both tables
// of the result to BENCHMARK.json: exactly the metrics the contract
// lists, each once, well-formed names, the units of the program's own
// tables, finite non-negative values, no failed operation (which includes
// the trace-fidelity check: a stage-by-stage re-execution that does not
// reproduce the public answer is a failed operation). The end-to-end metrics
// BENCHMARK.json cannot carry ride along: failed_op_share is 0 everywhere,
// and the write lane is reported by sharded_mixed and by it alone.
func TestSmoke(t *testing.T) {
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, specs[i].name)
		}
	}
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	opt := options{seed: 1, seconds: 0.1, trace: true, n: 600, budget: 12, traced: 4, outDir: t.TempDir()}
	for _, sp := range specs {
		sp.sample = 16
		res, err := runWorkload(sp, opt)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: attempted=%d failed=%d\n%v", sp.name, res.attempted, res.failed, res.notes)
		}
		extra := res.uncontracted()
		if share, ok := extra[failedOpShare.name]; !ok || share.Value != 0 {
			t.Errorf("%s: %s = %v, %v", sp.name, failedOpShare.name, share.Value, ok)
		}
		for _, d := range writeLane {
			if v, ok := extra[d.name]; ok != sp.durable || ok && !(v.Value > 0) {
				t.Errorf("%s: %s reported=%v value=%v, durable=%v", sp.name, d.name, ok, v.Value, sp.durable)
			}
		}
		for _, table := range []struct {
			got  map[string]value
			want map[string]string
		}{{res.endToEnd, endToEndUnits}, {res.perLayer, perLayerUnits}} {
			if len(table.got) != len(table.want) {
				t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", sp.name, len(table.got), len(table.want))
			}
			for n, m := range table.got {
				switch unit, ok := table.want[n]; {
				case !ok:
					t.Errorf("%s: %s is not in BENCHMARK.json", sp.name, n)
				case unit != m.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", n, m.Unit, unit)
				}
				if !name.MatchString(n) {
					t.Errorf("metric name %q is malformed", n)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
					t.Errorf("%s: %s = %v", sp.name, n, m.Value)
				}
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

// TestCompare holds -compare to its rule on result files made by hand: two
// runs of narrow_high per side, b differing from a in one respect per case.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, change func(*resultFile)) string {
		f := resultFile{}
		for seed := int64(1); seed <= 2; seed++ {
			m := make(map[string]value)
			for _, d := range endToEnd {
				m[d.name] = value{100 + float64(seed), d.unit}
			}
			m["write_per_s"] = value{400, "1/s"}
			f.Runs = append(f.Runs, runRecord{Workload: "narrow_high", Seed: seed, Correct: true, Attempted: 10, Inputs: "i", Answers: "a", Metrics: m})
		}
		change(&f)
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(f *resultFile, run int, name string, v float64) {
		f.Runs[run].Metrics[name] = value{v, f.Runs[run].Metrics[name].Unit}
	}
	base := write("base", func(*resultFile) {})
	for _, tc := range []struct {
		name    string
		change  func(*resultFile)
		wantErr string // "" when b must pass
		wantOut string
	}{
		{"same", func(*resultFile) {}, "", "identical on all 2 seeds"},
		{"within bound", func(f *resultFile) { set(f, 0, "query_p50_us", 110); set(f, 1, "query_p50_us", 111) }, "", ""},
		{"beyond bound", func(f *resultFile) { set(f, 0, "query_p50_us", 150); set(f, 1, "query_p50_us", 151) }, "regressed", "REGRESSION"},
		{"write lane beyond its bound", func(f *resultFile) { set(f, 0, "write_per_s", 300); set(f, 1, "write_per_s", 300) }, "regressed", "REGRESSION"},
		{"noisy", func(f *resultFile) { set(f, 0, "query_p50_us", 60); set(f, 1, "query_p50_us", 260) }, "", "unresolved"},
		{"recall a hair lower on one seed", func(f *resultFile) { set(f, 1, "recall", 101.9) }, "regressed", "identical on 1 seeds, better on 0, worse on 1"},
		{"recall higher", func(f *resultFile) { set(f, 1, "recall", 103) }, "", "better on 1"},
		{"failed operation", func(f *resultFile) { f.Runs[1].Failed, f.Runs[1].Correct = 1, false }, "operations failed", ""},
		{"other seeds", func(f *resultFile) { f.Runs[1].Seed = 7 }, "same seeds", ""},
		{"other inputs", func(f *resultFile) { f.Runs[0].Inputs = "j" }, "inputs differ", ""},
		{"traced", func(f *resultFile) { f.Runs[0].Trace, f.Runs[1].Trace = true, true }, "traced", ""},
		{"no run", func(f *resultFile) { f.Runs = nil }, "2 runs against 0", ""},
	} {
		var out strings.Builder
		err := compareFiles(&out, "../BENCHMARK.json", base, write("b", tc.change))
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: error %v, want %q\n%s", tc.name, err, tc.wantErr, out.String())
		}
		if !strings.Contains(out.String(), tc.wantOut) {
			t.Errorf("%s: report lacks %q\n%s", tc.name, tc.wantOut, out.String())
		}
	}
	// A baseline of 0 gives no verdict, and certainly no regression.
	zero := write("zero", func(f *resultFile) { set(f, 0, "heap_mb", 0); set(f, 1, "heap_mb", 0) })
	var out strings.Builder
	if err := compareFiles(&out, "../BENCHMARK.json", zero, base); err != nil || !strings.Contains(out.String(), "no baseline") {
		t.Errorf("zero baseline: %v\n%s", err, out.String())
	}
	if err := compareFiles(io.Discard, "../BENCHMARK.json", base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file compared")
	}
}
