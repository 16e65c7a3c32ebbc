package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// resultFile is what -out writes and -compare reads: every run of a
// -repeat, with the machine it ran on.
type resultFile struct {
	Machine machine     `json:"machine"`
	Runs    []runRecord `json:"runs"`
}

type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

type runRecord struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Inputs    string           `json:"inputs"`
	Answers   string           `json:"answers"`
	Metrics   map[string]value `json:"metrics"`
}

// runRepeated runs the selected workloads repeat times, each time with the
// next seed, as the acceptance procedure in BENCHMARK.json's contract does,
// and prints each metric's median, quartiles and quartile spread.
func runRepeated(w io.Writer, selected []spec, opt options, repeat int, out string) error {
	file := resultFile{Machine: machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}}
	for k := 0; k < repeat; k++ {
		for _, sp := range selected {
			o := opt
			o.seed = opt.seed + int64(k)
			res, err := runWorkload(sp, o)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", sp.name, o.seed, err)
			}
			if err := res.print(w); err != nil {
				return err
			}
			file.Runs = append(file.Runs, runRecord{sp.name, o.seed, o.trace, res.failed == 0, res.attempted, res.failed, res.inputs, res.answers, res.record()})
		}
	}
	for _, sp := range selected {
		fmt.Fprintf(w, "== %s over %d runs: median [q1, q3] spread\n", sp.name, repeat)
		series := series(file.runsOf(sp.name))
		for _, name := range sortedKeys(series) {
			q1, med, q3 := quartiles(series[name])
			fmt.Fprintf(w, "   %-36s %16.6f [%.6f, %.6f] %.4f\n", name, med, q1, q3, spread(q1, med, q3))
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// runsOf is one workload's runs in the file, in seed order.
func (f resultFile) runsOf(workload string) []runRecord {
	var out []runRecord
	for _, r := range f.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

// series gathers the runs' values per metric, in the runs' order. A metric
// some run lacks (the write lane of a workload without one) has no series.
func series(runs []runRecord) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range runs {
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	for name, v := range out {
		if len(v) != len(runs) {
			delete(out, name)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4) gives
// (the exclusive method), because that is what the acceptance procedure
// computes. Fewer than two values have no spread.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// contract is the part of BENCHMARK.json that judging needs.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// gates lists every end-to-end metric -compare judges, in report order: the
// contract's with the bounds BENCHMARK.json fixes, then the write lane with
// the program's own.
func (c *contract) gates() []gatedDef {
	var out []gatedDef
	for _, m := range c.EndToEnd {
		out = append(out, gatedDef{metricDef: metricDef{m.Name, m.Unit}, better: m.Better, bound: m.Bound})
	}
	return append(out, writeLane...)
}

// comparable refuses two sets of runs that cannot be held against each
// other: different seeds, a traced side and an untraced one, or, for one
// seed, different inputs. It also refuses wrong answers on either side:
// a time bought with a failed operation is no time.
func comparable(workload string, ra, rb []runRecord) error {
	if len(ra) != len(rb) {
		return fmt.Errorf("%s: %d runs against %d", workload, len(ra), len(rb))
	}
	for i := range ra {
		a, b := ra[i], rb[i]
		switch {
		case a.Seed != b.Seed:
			return fmt.Errorf("%s: the files do not cover the same seeds (%d against %d)", workload, a.Seed, b.Seed)
		case i > 0 && a.Seed == ra[i-1].Seed:
			return fmt.Errorf("%s: seed %d twice in one file", workload, a.Seed)
		case a.Trace != b.Trace || a.Trace != ra[0].Trace:
			return fmt.Errorf("%s seed %d: a traced run against an untraced one", workload, a.Seed)
		case a.Inputs != b.Inputs:
			return fmt.Errorf("%s seed %d: the inputs differ (%s against %s)", workload, a.Seed, a.Inputs, b.Inputs)
		}
		for _, r := range []runRecord{a, b} {
			if r.Failed > 0 || !r.Correct {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", workload, r.Seed, r.Failed, r.Attempted)
			}
		}
	}
	return nil
}

// compareFiles judges result file b against a, workload by workload and
// metric by metric, by the rule of the choosing-metrics guide: b regresses
// a metric when its median is worse than a's by more than the metric's
// bound, and the pair is unresolved, not unchanged, when either side's
// quartile spread is wider than that bound. A metric that repeats exactly
// for one seed is held seed by seed instead and may not worsen at all.
// Per-layer metrics have no bound and are listed with their change only. A
// regression is an error, and so is a pair of files that cannot be compared.
func compareFiles(w io.Writer, contractPath, pathA, pathB string) error {
	c, err := readContract(contractPath)
	if err != nil {
		return fmt.Errorf("bounds come from BENCHMARK.json in the working directory: %w", err)
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s %+v\nb: %s %+v\n", pathA, a.Machine, pathB, b.Machine)
	if a.Machine != b.Machine {
		fmt.Fprintln(w, "WARNING: the two files were not measured on the same machine and toolchain; wall-clock verdicts mean little")
	}
	regressions, judged := 0, 0
	for _, wl := range c.Workloads {
		ra, rb := a.runsOf(wl.Name), b.runsOf(wl.Name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if err := comparable(wl.Name, ra, rb); err != nil {
			return err
		}
		changed := 0
		for i := range ra {
			if ra[i].Answers != rb[i].Answers {
				changed++
			}
		}
		fmt.Fprintf(w, "== %s, %d seeds, answer checksum changed on %d: metric a -> b (change for the worse, bound) verdict\n", wl.Name, len(ra), changed)
		sa, sb := series(ra), series(rb)
		for _, m := range c.gates() {
			va, vb := sa[m.name], sb[m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			judged++
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			verdict, bound := "ok", fmt.Sprintf("%.2f", m.bound)
			worse := worsening(ma, mb, m.better)
			switch {
			case exactPerSeed[m.name]:
				// The same seeds on both sides: means over the seeds are
				// directly comparable, and any worsening is a regression.
				bound = "exact"
				worse = worsening(mean(va), mean(vb), m.better)
				if isWorse(mean(va), mean(vb), m.better) {
					verdict = "REGRESSION"
					regressions++
				}
				verdict += ", " + seedBySeed(va, vb, m.better)
			case ma == 0:
				verdict = "no baseline: a's median is 0"
			case max(spread(q1a, ma, q3a), spread(q1b, mb, q3b)) > m.bound:
				verdict = fmt.Sprintf("unresolved: spreads %.3f and %.3f", spread(q1a, ma, q3a), spread(q1b, mb, q3b))
			case worse > m.bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "   %-24s %14.4f -> %14.4f %-5s (%+.4f, %s) %s\n", m.name, ma, mb, m.unit, worse, bound, verdict)
		}
		for _, m := range c.PerLayer {
			va, vb := sa[m.Name], sb[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			judged++
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "   %-36s %14.4f -> %14.4f %s\n", m.Name, ma, mb, m.Unit)
		}
	}
	if judged == 0 {
		return fmt.Errorf("the two files share no workload of BENCHMARK.json: nothing was compared")
	}
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed beyond their bound", regressions)
	}
	return nil
}

func isWorse(a, b float64, better string) bool {
	if better == "higher" {
		return b < a
	}
	return b > a
}

// worsening is b's change for the worse against a, as a share of a; a
// baseline of 0 has no shares.
func worsening(a, b float64, better string) float64 {
	switch {
	case a == 0:
		return 0
	case better == "higher":
		return (a - b) / a
	}
	return (b - a) / a
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// seedBySeed counts the seeds on which b is identical to, better than and
// worse than a.
func seedBySeed(va, vb []float64, better string) string {
	same, up, down := 0, 0, 0
	for i := range va {
		switch {
		case va[i] == vb[i]:
			same++
		case isWorse(va[i], vb[i], better):
			down++
		default:
			up++
		}
	}
	if same == len(va) {
		return fmt.Sprintf("identical on all %d seeds", same)
	}
	return fmt.Sprintf("identical on %d seeds, better on %d, worse on %d", same, up, down)
}
