package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names a metric and its unit. The endToEnd and perLayer tables
// below are the program's side of BENCHMARK.json; bench_test.go fails when
// they drift apart.
type metricDef struct{ name, unit string }

// endToEnd lists what a caller of the package sees. Every workload reports
// every one of them, untraced, and the run's last line carries exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_us", "us"},
	{"query_per_s", "1/s"},
	{"sim_io_ms_per_query", "ms"},
	{"recall", "ratio"},
	{"heap_mb", "MiB"},
}

// exactPerSeed are the end-to-end metrics that repeat exactly for one seed:
// -compare holds them seed by seed, not by BENCHMARK.json's bound, which has
// to sit above what another seed's draw of queries does to them.
var exactPerSeed = map[string]bool{"sim_io_ms_per_query": true, "recall": true}

// gatedDef is an end-to-end metric that BENCHMARK.json cannot carry, with the
// direction and bound -compare judges it by. from names the per-layer metric
// that holds the measurement: every run takes it, a traced run reports it
// under that name.
type gatedDef struct {
	metricDef
	from   string
	better string
	bound  float64
}

// writeLane lists the end-to-end metrics of mutations and recovery. Only a
// workload that writes durably has them, and BENCHMARK.json's end-to-end
// metrics must exist and be non-zero on every workload; so an untraced run
// prints these, -out keeps them and -compare judges them, but the run's last
// line leaves them out. Elsewhere they read n/a.
var writeLane = []gatedDef{
	{metricDef{"write_p50_us", "us"}, "ssr.write_p50_us", "lower", 0.10},
	{metricDef{"write_per_s", "1/s"}, "ssr.write_per_s", "higher", 0.10},
	{metricDef{"recovery_s", "s"}, "recovery.reopen_s", "lower", 0.10},
}

// failedOpShare is failed / attempted operations. It is 0 on a correct run,
// which BENCHMARK.json's metrics may never be; the result line's failed and
// attempted carry it there, and -compare refuses a file in which it is not 0.
var failedOpShare = metricDef{"failed_op_share", "ratio"}

// perLayer lists the traced run's numbers, named layer.metric after the Go
// package that does the work. A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"minhash.sign_collection_s", "s"},
	{"minhash.sign_us", "us"},
	{"simdist.sample_s", "s"},
	{"optimize.build_plan_s", "s"},
	{"optimize.intervals", "count"},
	{"optimize.expected_recall", "ratio"},
	{"core.populate_s", "s"},
	{"filter.probe_merge_us", "us"},
	{"filter.probe_us_per_table", "us"},
	{"filter.index_rand_pages_per_query", "pages"},
	{"filter.candidates_per_query", "count"},
	{"filter.precision", "ratio"},
	{"storage.fetch_us", "us"},
	{"storage.fetch_pages_per_query", "pages"},
	{"storage.pages_per_set", "pages"},
	{"set.jaccard_us", "us"},
	{"set.jaccard_ns_per_pair", "ns"},
	{"core.sort_us", "us"},
	{"core.query_us", "us"},
	{"core.screened_fraction", "ratio"},
	{"engine.scatter_gather_us", "us"},
	{"engine.gather_us", "us"},
	{"engine.shards_queried", "count"},
	{"engine.shards_pruned", "count"},
	{"engine.insert_us", "us"},
	{"ssr.facade_us", "us"},
	{"ssr.query_p99_us", "us"},
	{"ssr.write_p50_us", "us"},
	{"ssr.write_p99_us", "us"},
	{"ssr.write_per_s", "1/s"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"plan.result_hit_ratio", "ratio"},
	{"plan.plan_hit_ratio", "ratio"},
	{"plan.miss_us", "us"},
	{"plan.hit_us", "us"},
	{"plan.miss_over_baseline", "ratio"},
	{"plan.decide_us", "us"},
	{"plan.chosen.fi-probe", "count"},
	{"plan.chosen.direct-scan", "count"},
	{"plan.chosen.cached", "count"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.bytes_per_mutation", "bytes"},
	{"recovery.reopen_s", "s"},
	{"recovery.replay_s", "s"},
	{"recovery.checkpoint_s", "s"},
	{"recovery.checkpoint_bytes", "bytes"},
	{"recovery.bytes_per_set", "bytes"},
	{"tuner.on_insert_us", "us"},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. A traced run reports both
// tables; an untraced run fills what it measures of the per-layer table (the
// write lane) and does not print it. Notes hold what is printed but is no
// metric (machine facts, sample counts).
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	endToEnd  map[string]value
	perLayer  map[string]value
	notes     []string
	// inputs fingerprints the collection and the query streams, answers the
	// sample pass's matches; both repeat exactly for one seed.
	inputs  string
	answers string
}

func newResult(workload string, traced bool) *result {
	r := &result{workload: workload, traced: traced, endToEnd: make(map[string]value), perLayer: make(map[string]value)}
	for _, d := range endToEnd {
		r.endToEnd[d.name] = value{Unit: d.unit}
	}
	for _, d := range perLayer {
		r.perLayer[d.name] = value{Unit: d.unit}
	}
	return r
}

// set records a metric of either table; a name in neither is a bug.
func (r *result) set(name string, v float64) {
	for _, table := range []map[string]value{r.endToEnd, r.perLayer} {
		if m, ok := table[name]; ok {
			m.Value = v
			table[name] = m
			return
		}
	}
	panic("benchmark: metric " + name + " is in neither table of metrics.go")
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// contractMetrics is the table BENCHMARK.json asks of the run's mode: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func (r *result) contractMetrics() map[string]value {
	if r.traced {
		return r.perLayer
	}
	return r.endToEnd
}

// uncontracted is the rest of an untraced run's end-to-end view: the write
// lane where the workload has one, and the share of failed operations.
func (r *result) uncontracted() map[string]value {
	out := map[string]value{failedOpShare.name: {float64(r.failed) / float64(max(r.attempted, 1)), failedOpShare.unit}}
	for _, d := range writeLane {
		if v := r.perLayer[d.from].Value; v != 0 {
			out[d.name] = value{v, d.unit}
		}
	}
	return out
}

// record is what -out keeps of the run and -compare judges: the contract's
// table and, untraced, the uncontracted end-to-end metrics beside it.
func (r *result) record() map[string]value {
	out := make(map[string]value)
	for name, v := range r.contractMetrics() {
		out[name] = v
	}
	if !r.traced {
		for name, v := range r.uncontracted() {
			out[name] = v
		}
	}
	return out
}

// print writes the human-readable report and, last, the one-line JSON
// object the contract in BENCHMARK.json asks for.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "== %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	fmt.Fprintf(w, "   inputs %s\n   answers %s\n", r.inputs, r.answers)
	printTable(w, r.endToEnd)
	extra := r.uncontracted()
	for _, d := range writeLane {
		if _, ok := extra[d.name]; !ok {
			fmt.Fprintf(w, "   %-36s %16s %s\n", d.name, "n/a", d.unit)
		}
	}
	printTable(w, extra)
	if r.traced {
		printTable(w, r.perLayer)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.contractMetrics()})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printTable(w io.Writer, table map[string]value) {
	for _, name := range sortedKeys(table) {
		fmt.Fprintf(w, "   %-36s %16.6f %s\n", name, table[name].Value, table[name].Unit)
	}
}

// percentile is the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianMicros is the median of the durations, in microseconds.
func medianMicros(d []time.Duration) float64 { return micros(percentile(sortedCopy(d), 0.5)) }

func medianSeconds(d []time.Duration) float64 { return percentile(sortedCopy(d), 0.5).Seconds() }
