package ssr

// Benchmarks: one per paper artifact (Figure 6a/6b, Figure 7a/7b, the
// Figure 3 filter curves, and the Theorem 1 embedding validation) plus
// micro-benchmarks of every substrate on the query path. The figure
// benchmarks time one index query per iteration over the paper's workload
// and report measured recall, precision, and the simulated I/O microseconds
// per query as custom metrics; `cmd/ssrbench` prints the same data as full
// tables. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks use laptop-scale collections (see internal/experiments
// for the scaling flags of the full harness).

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/filter"
	"repro/internal/hashtable"
	"repro/internal/join"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/storage"
	"repro/internal/workload"
)

// fixture is a built index plus its workload, shared across benchmark
// iterations.
type fixture struct {
	ix      *core.Index
	sets    []set.Set
	queries []workload.Query
	model   storage.CostModel
}

var (
	fixtures   = map[string]*fixture{}
	fixturesMu sync.Mutex
)

// benchFixture builds (once) an index over a Set1-like collection with the
// given table budget.
func benchFixture(b *testing.B, name string, params workload.Params, budget int) *fixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[name]; ok {
		return f
	}
	sets, err := workload.Generate(params)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.Build(sets, core.Options{
		Embed:          minhash.Options{K: 64, Bits: 8, Seed: 1},
		Plan:           optimize.Options{Budget: budget, RecallTarget: 0.75},
		PayloadPerElem: 110,
	})
	if err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 256, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{ix: ix, sets: sets, queries: qs, model: storage.DefaultCostModel()}
	fixtures[name] = f
	return f
}

// benchFig6 times index queries and reports measured recall/precision —
// the quantities Figure 6 plots per bucket.
func benchFig6(b *testing.B, budget int) {
	f := benchFixture(b, benchName("fig6", budget), workload.Set1Params(2000), budget)
	runner := eval.NewRunner(f.ix, f.sets)
	var recall, precision float64
	counted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		matches, stats, err := f.ix.QueryWithOptions(f.sets[q.SID], q.Lo, q.Hi, core.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = matches
		_ = stats
	}
	b.StopTimer()
	// Measure quality on a fixed sample (independent of b.N) so the
	// reported metrics are stable.
	outcomes, err := runner.Run(f.queries[:64])
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Truth > 0 {
			recall += o.Recall
			counted++
		}
		precision += o.Precision
	}
	if counted > 0 {
		b.ReportMetric(recall/float64(counted), "recall")
	}
	b.ReportMetric(precision/float64(len(outcomes)), "precision")
}

func benchName(prefix string, budget int) string {
	return prefix + "-" + string(rune('0'+budget/500))
}

// BenchmarkFig6a regenerates Figure 6(a): query quality at a 500-table
// budget.
func BenchmarkFig6a(b *testing.B) { benchFig6(b, 500) }

// BenchmarkFig6b regenerates Figure 6(b): query quality at a 1000-table
// budget.
func BenchmarkFig6b(b *testing.B) { benchFig6(b, 1000) }

// benchFig7 times the two Figure 7 contenders and reports their simulated
// I/O per query.
func benchFig7(b *testing.B, params workload.Params, name string) {
	f := benchFixture(b, name, params, 500)
	var indexIO, scanIO int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		_, stats, err := f.ix.QueryWithOptions(f.sets[q.SID], q.Lo, q.Hi, core.QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		indexIO += int64(stats.SimIOTime(f.model))
	}
	b.StopTimer()
	// One representative scan for the baseline I/O metric.
	_, sstats, err := f.ix.ScanQuery(f.sets[f.queries[0].SID], f.queries[0].Lo, f.queries[0].Hi)
	if err != nil {
		b.Fatal(err)
	}
	scanIO = int64(sstats.SimIOTime(f.model))
	b.ReportMetric(float64(indexIO)/float64(b.N)/1e3, "index-io-µs/query")
	b.ReportMetric(float64(scanIO)/1e3, "scan-io-µs/query")
}

// BenchmarkFig7a regenerates Figure 7(a): Set1 response time, index vs scan.
func BenchmarkFig7a(b *testing.B) { benchFig7(b, workload.Set1Params(2000), "fig7a") }

// BenchmarkFig7b regenerates Figure 7(b): Set2 response time, index vs scan.
func BenchmarkFig7b(b *testing.B) { benchFig7(b, workload.Set2Params(2000), "fig7b") }

// BenchmarkScanBaseline times the sequential-scan comparator on its own.
func BenchmarkScanBaseline(b *testing.B) {
	f := benchFixture(b, "scanbase", workload.Set1Params(2000), 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		if _, _, err := f.ix.ScanQuery(f.sets[q.SID], q.Lo, q.Hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterCurve regenerates the Figure 3 curve computation.
func BenchmarkFilterCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FilterCurve(io.Discard, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbeddingValidation regenerates the Theorem 1 table.
func BenchmarkEmbeddingValidation(b *testing.B) {
	cfg := experiments.Config{MinHashes: 32}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Embedding(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkJaccard measures exact similarity of two 100-element sets.
func BenchmarkJaccard(b *testing.B) {
	x := make([]set.Elem, 100)
	y := make([]set.Elem, 100)
	for i := range x {
		x[i] = set.Elem(i * 3)
		y[i] = set.Elem(i * 4)
	}
	sa, sb := set.New(x...), set.New(y...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sa.Jaccard(sb)
	}
}

// BenchmarkMinhashSign measures signing a 100-element set with k=100.
func BenchmarkMinhashSign(b *testing.B) {
	fam, err := minhash.NewFamily(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	elems := make([]set.Elem, 100)
	for i := range elems {
		elems[i] = set.Elem(i * 7)
	}
	s := set.New(elems...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fam.Sign(s)
	}
}

// BenchmarkLazyKeyExtraction measures one bucket key gathered straight
// from the signature (r=16 compiled taps: an SFI at s*=0.958 with one
// table).
func BenchmarkLazyKeyExtraction(b *testing.B) {
	perms, err := minhash.NewFamily(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	code, err := filter.NewHadamard(8)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := filter.New(0, filter.Options{Threshold: 0.958, Code: code, K: perms.K(), Tables: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	elems := make([]set.Elem, 100)
	for i := range elems {
		elems[i] = set.Elem(i * 7)
	}
	sig := perms.Sign(set.New(elems...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Key(0, sig, 0)
	}
}

// BenchmarkGroupInsert measures inserting a vector into a filter index of
// l=20 tables (r=12: an SFI at s*=0.75).
func BenchmarkGroupInsert(b *testing.B) {
	perms, err := minhash.NewFamily(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	code, err := filter.NewHadamard(8)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := filter.New(0, filter.Options{
		Threshold: 0.75, Code: code, K: perms.K(), Tables: 20, Seed: 2, ExpectedEntries: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	elems := make([]set.Elem, 60)
	for i := range elems {
		elems[i] = set.Elem(i * 5)
	}
	sig := perms.Sign(set.New(elems...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(sig, storage.SID(i))
	}
}

// BenchmarkBuildIndex measures full index construction for 500 sets.
func BenchmarkBuildIndex(b *testing.B) {
	sets, err := workload.Generate(workload.Set1Params(500))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Build(sets, core.Options{
			Embed: minhash.Options{K: 32, Bits: 8, Seed: 1},
			Plan:  optimize.Options{Budget: 60, RecallTarget: 0.75},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild compares serial and parallel construction on the Figure 6
// fixture parameters (Set1 at 2000 sets, k=64, 500 tables). The parallel
// variant uses every CPU; the sub-benchmark ratio is the build speedup
// (bit-identical output is pinned by TestParallelBuildDeterminism).
func BenchmarkBuild(b *testing.B) {
	sets, err := workload.Generate(workload.Set1Params(2000))
	if err != nil {
		b.Fatal(err)
	}
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Build(sets, core.Options{
					Embed:   minhash.Options{K: 64, Bits: 8, Seed: 1},
					Plan:    optimize.Options{Budget: 500, RecallTarget: 0.75},
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", bench(1))
	b.Run("parallel", bench(0))
}

// BenchmarkQueryBatch compares a serial public query loop with one
// QueryBatch call over the same 256-query workload.
func BenchmarkQueryBatch(b *testing.B) {
	sets, err := workload.Generate(workload.Set1Params(2000))
	if err != nil {
		b.Fatal(err)
	}
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 256, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	c, elems := stringCollection(sets)
	ix, err := Build(c, Options{Budget: 500, RecallTarget: 0.75, MinHashes: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]BatchQuery, len(qs))
	for i, q := range qs {
		batch[i] = BatchQuery{Elements: elems[q.SID], Lo: q.Lo, Hi: q.Hi}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := batch[i%len(batch)]
			if _, _, err := ix.QueryWithOptions(q.Elements, q.Lo, q.Hi, QueryOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range ix.QueryBatch(batch, QueryOptions{}) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		// Normalize to per-query so the two sub-benchmarks compare directly.
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/query")
	})
}

// BenchmarkQuerySteadyState measures the pooled-scratch query path with
// allocation reporting: steady-state queries should allocate only their
// result slices (run with -benchmem to verify).
func BenchmarkQuerySteadyState(b *testing.B) {
	f := benchFixture(b, "steady", workload.Set1Params(2000), 500)
	// Warm the scratch pool.
	for i := 0; i < 4; i++ {
		q := f.queries[i]
		if _, _, err := f.ix.QueryWithOptions(f.sets[q.SID], q.Lo, q.Hi, core.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		if _, _, err := f.ix.QueryWithOptions(f.sets[q.SID], q.Lo, q.Hi, core.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryScreened is BenchmarkQuerySteadyState with signature
// screening at the default margin, isolating the screening saving.
func BenchmarkQueryScreened(b *testing.B) {
	f := benchFixture(b, "steady", workload.Set1Params(2000), 500)
	opt := core.QueryOptions{Screen: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		if _, _, err := f.ix.QueryWithOptions(f.sets[q.SID], q.Lo, q.Hi, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPIQuery measures an end-to-end query through the public
// ssr API.
func BenchmarkPublicAPIQuery(b *testing.B) {
	sets, err := workload.Generate(workload.Set1Params(1000))
	if err != nil {
		b.Fatal(err)
	}
	c := NewCollection()
	for _, s := range sets {
		c.AddIDs(s.Elems()...)
	}
	ix, err := Build(c, Options{Budget: 100, RecallTarget: 0.75, MinHashes: 64, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.QuerySID(i%1000, 0.7, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinhashEstimate measures signature-agreement similarity
// estimation (k=100).
func BenchmarkMinhashEstimate(b *testing.B) {
	fam, err := minhash.NewFamily(100, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]set.Elem, 80)
	y := make([]set.Elem, 80)
	for i := range x {
		x[i] = set.Elem(i)
		y[i] = set.Elem(i + 20)
	}
	a, c := fam.Sign(set.New(x...)), fam.Sign(set.New(y...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minhash.Estimate(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashtableProbe measures one bucket probe in a loaded table.
func BenchmarkHashtableProbe(b *testing.B) {
	tab, err := hashtable.New(0, hashtable.Options{ExpectedEntries: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<16; i++ {
		tab.Insert(uint64(i%997), storage.SID(i))
	}
	marks := make([]uint64, (1<<16)/64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(marks)
		marks = tab.Probe(uint64(i%997), nil, marks)
	}
}

// BenchmarkSelfJoin measures the filter-powered similarity self-join over
// 1000 sets at threshold 0.8.
func BenchmarkSelfJoin(b *testing.B) {
	sets, err := workload.Generate(workload.Set1Params(1000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := join.SelfJoin(sets, join.Options{Threshold: 0.8, Tables: 16, MinHashes: 64, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactJoin is the quadratic comparator for BenchmarkSelfJoin.
func BenchmarkExactJoin(b *testing.B) {
	sets, err := workload.Generate(workload.Set1Params(1000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = join.Exact(sets, 0.8)
	}
}

// BenchmarkClusterLeaders measures leader clustering over the benchmark
// fixture.
func BenchmarkClusterLeaders(b *testing.B) {
	f := benchFixture(b, "cluster", workload.Set1Params(1000), 100)
	// The fixture's build options carry its plan, so this one-shard engine
	// holds the fixture's index.
	e, err := engine.Build(f.sets, engine.Options{Core: f.ix.BuildOptions()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Leaders(e, f.sets, cluster.Options{Lo: 0.5, Hi: 0.95}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotSave measures serializing the benchmark fixture.
func BenchmarkSnapshotSave(b *testing.B) {
	f := benchFixture(b, "snap", workload.Set1Params(1000), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := f.ix.Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkSnapshotLoad measures the deterministic rebuild from a snapshot
// (signatures cached, signing skipped).
func BenchmarkSnapshotLoad(b *testing.B) {
	f := benchFixture(b, "snapload", workload.Set1Params(1000), 100)
	var buf bytes.Buffer
	if err := f.ix.Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Load(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopK measures nearest-neighbour retrieval.
func BenchmarkTopK(b *testing.B) {
	f := benchFixture(b, "topk", workload.Set1Params(1000), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.ix.TopKPresigned(f.sets[i%len(f.sets)], nil, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleDistribution measures the Lemma 1 one-pass pair sampler.
func BenchmarkSampleDistribution(b *testing.B) {
	sets, err := workload.Generate(workload.Set1Params(2000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simdist.SamplePairs(sets, 20000, 0, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
