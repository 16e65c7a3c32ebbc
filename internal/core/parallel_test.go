package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/workload"
)

// buildWorkers builds the shared test collection with the given worker
// count and seed.
func buildWorkers(t *testing.T, n, budget, workers int, seed int64) (*Index, []set.Set) {
	t.Helper()
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ix, err := Build(sets, Options{
		Embed:    embed.Options{K: 64, Bits: 8, Seed: seed},
		Plan:     optimize.Options{Budget: budget, RecallTarget: 0.9},
		DistSeed: seed,
		Workers:  workers,
	})
	if err != nil {
		t.Fatalf("build(workers=%d): %v", workers, err)
	}
	return ix, sets
}

// requireSameFilters fails unless a and b built the same filter indices,
// matched by plan ordinal: kind, shape and every sampled bit position.
func requireSameFilters(t *testing.T, label string, a, b *Index) {
	t.Helper()
	if len(a.fis) != len(b.fis) {
		t.Fatalf("%s: filter index counts differ: %d vs %d", label, len(a.fis), len(b.fis))
	}
	for ord, f1 := range a.fis {
		f2 := b.fis[ord]
		name := fmt.Sprintf("%s %v@%g", label, f1.Kind(), a.plan.FIs[ord].Point)
		if f1.Kind() != f2.Kind() || f1.Tables() != f2.Tables() || f1.Entries() != f2.Entries() {
			t.Fatalf("%s: shape differs (kind %v vs %v, tables %d vs %d, entries %d vs %d)",
				name, f1.Kind(), f2.Kind(), f1.Tables(), f2.Tables(), f1.Entries(), f2.Entries())
		}
		for i := 0; i < f1.Tables(); i++ {
			q1, q2 := f1.Positions(i), f2.Positions(i)
			if len(q1) != len(q2) {
				t.Fatalf("%s table %d: position counts differ", name, i)
			}
			for j := range q1 {
				if q1[j] != q2[j] {
					t.Fatalf("%s table %d position %d: %d vs %d", name, i, j, q1[j], q2[j])
				}
			}
		}
	}
}

// requireSameIndex fails unless a and b have bit-identical signatures and
// filter-index bit positions, and agree on query answers for a few ranges.
func requireSameIndex(t *testing.T, label string, a, b *Index, sets []set.Set) {
	t.Helper()
	if len(a.sigs) != len(b.sigs) {
		t.Fatalf("%s: signature counts differ: %d vs %d", label, len(a.sigs), len(b.sigs))
	}
	for sid := range a.sigs {
		s1, s2 := a.sigs[sid], b.sigs[sid]
		if len(s1) != len(s2) {
			t.Fatalf("%s: sid %d signature lengths differ", label, sid)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("%s: sid %d coordinate %d differs: %d vs %d", label, sid, i, s1[i], s2[i])
			}
		}
	}
	requireSameFilters(t, label, a, b)
	if a.IndexPages() != b.IndexPages() {
		t.Fatalf("%s: index pages differ: %d vs %d", label, a.IndexPages(), b.IndexPages())
	}
	for _, r := range [][2]float64{{0.8, 1.0}, {0.3, 0.6}, {0.0, 0.2}} {
		for _, qi := range []int{0, len(sets) / 2, len(sets) - 1} {
			m1, st1, err := a.Query(sets[qi], r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			m2, st2, err := b.Query(sets[qi], r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if len(m1) != len(m2) {
				t.Fatalf("%s range %v sid %d: %d vs %d results", label, r, qi, len(m1), len(m2))
			}
			for i := range m1 {
				if m1[i] != m2[i] {
					t.Fatalf("%s range %v sid %d result %d differs: %+v vs %+v", label, r, qi, i, m1[i], m2[i])
				}
			}
			if st1.IndexIO != st2.IndexIO || st1.FetchIO != st2.FetchIO {
				t.Fatalf("%s range %v sid %d: I/O accounting differs: %v/%v vs %v/%v",
					label, r, qi, &st1.IndexIO, &st1.FetchIO, &st2.IndexIO, &st2.FetchIO)
			}
		}
	}
}

// TestParallelBuildDeterminism requires the parallel build to be
// bit-identical to the serial one — signatures, sampled bit positions,
// page layout, query answers, and I/O accounting — for several worker
// counts and seeds. This is the core contract of Options.Workers: the
// worker count is a throughput knob, never an observable.
func TestParallelBuildDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		serial, sets := buildWorkers(t, 250, 30, 1, seed)
		for _, workers := range []int{2, 4, 8} {
			par, _ := buildWorkers(t, 250, 30, workers, seed)
			requireSameIndex(t, fmt.Sprintf("seed=%d workers=%d", seed, workers), serial, par, sets)
		}
	}
}

// TestPopulationDeterminism pins per-table population: at every worker
// count each table returns the serial build's sids, in the serial chain
// order, for every stored entry's key, and the page count is identical.
func TestPopulationDeterminism(t *testing.T) {
	serial, _ := buildWorkers(t, 300, 40, 1, 5)
	for _, workers := range []int{2, 3, 16} {
		par, _ := buildWorkers(t, 300, 40, workers, 5)
		if got, want := par.IndexPages(), serial.IndexPages(); got != want {
			t.Fatalf("workers=%d: %d index pages, serial build %d", workers, got, want)
		}
		for ord, f := range serial.fis {
			g1, g2 := f.Group(), par.fis[ord].Group()
			for i := 0; i < g1.L(); i++ {
				for sid, sig := range serial.sigs {
					key := g1.Key(i, sig, 0)
					want := g1.Table(i).Probe(key, nil, nil)
					if got := g2.Table(i).Probe(key, nil, nil); !slices.Equal(got, want) {
						t.Fatalf("workers=%d FI %d table %d sid %d: probe %v, serial build %v", workers, ord, i, sid, got, want)
					}
				}
			}
		}
	}
}

// TestParallelBuildAtGOMAXPROCS pins the Workers=0 default (GOMAXPROCS)
// against the serial build under different GOMAXPROCS settings, since that
// is the configuration every default caller runs.
func TestParallelBuildAtGOMAXPROCS(t *testing.T) {
	serial, sets := buildWorkers(t, 200, 30, 1, 3)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		par, _ := buildWorkers(t, 200, 30, 0, 3)
		requireSameIndex(t, fmt.Sprintf("GOMAXPROCS=%d", procs), serial, par, sets)
	}
}

// TestParallelVerificationMatchesSerial forces the parallel verification
// path (threshold 1) and requires byte-identical matches and exact
// FetchIO accounting versus the serial path on the same index.
func TestParallelVerificationMatchesSerial(t *testing.T) {
	ix, sets := buildSmall(t, 400, 40)
	for _, r := range [][2]float64{{0.0, 1.0}, {0.3, 0.8}, {0.8, 1.0}} {
		for qi := 0; qi < 8; qi++ {
			q := sets[qi*31%len(sets)]
			serialM, serialSt, err := ix.QueryWithOptions(q, r[0], r[1], QueryOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parM, parSt, err := ix.QueryWithOptions(q, r[0], r[1], QueryOptions{Workers: 8, MinParallelVerify: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(serialM) != len(parM) {
				t.Fatalf("range %v: %d vs %d matches", r, len(serialM), len(parM))
			}
			for i := range serialM {
				if serialM[i] != parM[i] {
					t.Fatalf("range %v match %d differs: %+v vs %+v", r, i, serialM[i], parM[i])
				}
			}
			if serialSt.FetchIO != parSt.FetchIO || serialSt.Candidates != parSt.Candidates {
				t.Fatalf("range %v: stats differ: fetch %v vs %v, candidates %d vs %d",
					r, &serialSt.FetchIO, &parSt.FetchIO, serialSt.Candidates, parSt.Candidates)
			}
		}
	}
}

// TestQueryBatchMatchesSerial requires QueryBatch to return, per entry,
// exactly what a serial Query call returns — matches and exact per-query
// I/O counters — at several pool widths.
func TestQueryBatchMatchesSerial(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchQuery, len(qs))
	type serialAnswer struct {
		matches []Match
		stats   QueryStats
	}
	want := make([]serialAnswer, len(qs))
	for i, q := range qs {
		batch[i] = BatchQuery{Q: sets[q.SID], Lo: q.Lo, Hi: q.Hi}
		m, st, err := ix.Query(sets[q.SID], q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = serialAnswer{m, st}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		results := ix.QueryBatch(batch, QueryOptions{Workers: workers})
		if len(results) != len(batch) {
			t.Fatalf("workers=%d: %d results for %d queries", workers, len(results), len(batch))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d entry %d: %v", workers, i, r.Err)
			}
			if len(r.Matches) != len(want[i].matches) {
				t.Fatalf("workers=%d entry %d: %d vs %d matches", workers, i, len(r.Matches), len(want[i].matches))
			}
			for j := range r.Matches {
				if r.Matches[j] != want[i].matches[j] {
					t.Fatalf("workers=%d entry %d match %d differs", workers, i, j)
				}
			}
			if r.Stats.IndexIO != want[i].stats.IndexIO || r.Stats.FetchIO != want[i].stats.FetchIO {
				t.Fatalf("workers=%d entry %d: I/O differs: %v/%v vs %v/%v", workers, i,
					&r.Stats.IndexIO, &r.Stats.FetchIO, &want[i].stats.IndexIO, &want[i].stats.FetchIO)
			}
			if r.Stats.Candidates != want[i].stats.Candidates || r.Stats.Results != want[i].stats.Results {
				t.Fatalf("workers=%d entry %d: counts differ", workers, i)
			}
		}
	}
}

// TestQueryBatchPropagatesErrors checks per-entry error isolation: an
// invalid range fails its own entry without poisoning the rest.
func TestQueryBatchPropagatesErrors(t *testing.T) {
	ix, sets := buildSmall(t, 100, 30)
	batch := []BatchQuery{
		{Q: sets[0], Lo: 0.5, Hi: 1.0},
		{Q: sets[1], Lo: 0.9, Hi: 0.1}, // inverted
		{Q: sets[2], Lo: 0.0, Hi: 0.4},
	}
	results := ix.QueryBatch(batch, QueryOptions{Workers: 4})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("valid entries failed: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("inverted range did not fail")
	}
	if got := ix.QueryBatch(nil, QueryOptions{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestScreeningWideMarginIsExact checks the screening guardrail: with a
// margin of 1 the widened window covers [s1-1, s2+1] ⊇ [0, 1], so no
// candidate can be screened out and results must be identical to the
// unscreened query.
func TestScreeningWideMarginIsExact(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	for qi := 0; qi < 10; qi++ {
		q := sets[qi*17%len(sets)]
		plain, plainSt, err := ix.Query(q, 0.4, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		screened, st, err := ix.QueryWithOptions(q, 0.4, 0.9, QueryOptions{Screen: true, ScreenMargin: 1})
		if err != nil {
			t.Fatal(err)
		}
		if st.Screened != 0 {
			t.Fatalf("margin=1 screened %d candidates", st.Screened)
		}
		if len(plain) != len(screened) {
			t.Fatalf("margin=1 changed results: %d vs %d", len(plain), len(screened))
		}
		for i := range plain {
			if plain[i] != screened[i] {
				t.Fatalf("margin=1 result %d differs", i)
			}
		}
		if plainSt.FetchIO != st.FetchIO {
			t.Fatalf("margin=1 changed fetch I/O: %v vs %v", &plainSt.FetchIO, &st.FetchIO)
		}
	}
}

// TestScreeningReducesFetchIO checks that a tight margin on a selective
// range actually skips fetches: Screened > 0, FetchIO strictly below the
// unscreened query, and every returned match still verified exact and
// inside the range.
func TestScreeningReducesFetchIO(t *testing.T) {
	ix, sets := buildSmall(t, 500, 60)
	var screenedTotal int
	var reduced bool
	for qi := 0; qi < 20; qi++ {
		q := sets[qi*13%len(sets)]
		_, plainSt, err := ix.Query(q, 0.85, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		matches, st, err := ix.QueryWithOptions(q, 0.85, 1.0, QueryOptions{Screen: true, ScreenMargin: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		screenedTotal += st.Screened
		if st.FetchIO.Rand() < plainSt.FetchIO.Rand() {
			reduced = true
		}
		if st.FetchIO.Rand() > plainSt.FetchIO.Rand() {
			t.Fatalf("screening increased fetch I/O: %v vs %v", &st.FetchIO, &plainSt.FetchIO)
		}
		for _, m := range matches {
			if m.Similarity < 0.85 || m.Similarity > 1.0 {
				t.Fatalf("screened query returned out-of-range match %+v", m)
			}
		}
	}
	if screenedTotal == 0 {
		t.Fatal("tight margin screened nothing across 20 selective queries")
	}
	if !reduced {
		t.Fatal("screening never reduced fetch I/O")
	}
}

// TestScreeningDefaultMargin checks that Screen with margin 0 picks the
// Chernoff bound (not a zero margin that would screen half of everything).
func TestScreeningDefaultMargin(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	// With the 95% bound, near-duplicate self-queries must keep their hits.
	for qi := 0; qi < 10; qi++ {
		q := sets[qi]
		matches, _, err := ix.QueryWithOptions(q, 0.95, 1.0, QueryOptions{Screen: true})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range matches {
			if int(m.SID) == qi {
				found = true
			}
		}
		if !found {
			t.Fatalf("default-margin screening dropped the self-match of sid %d", qi)
		}
	}
}

// TestQueryBatchUnderMutation races QueryBatch against concurrent Insert
// and Delete (run with -race): batches must see a consistent point-in-time
// view and never error.
func TestQueryBatchUnderMutation(t *testing.T) {
	ix, sets := buildSmall(t, 200, 30)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 16, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchQuery, len(qs))
	for i, q := range qs {
		batch[i] = BatchQuery{Q: sets[q.SID], Lo: q.Lo, Hi: q.Hi}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opt := QueryOptions{Workers: 1 + g, Screen: i%2 == 0}
				for _, r := range ix.QueryBatch(batch, opt) {
					if r.Err != nil {
						errs <- r.Err
						return
					}
				}
			}
		}(g)
	}
	var writerWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < 20; i++ {
				base := uint64(2_000_000 + w*10_000 + i*100)
				sid, err := ix.Insert(set.New(base, base+1, base+2))
				if err != nil {
					errs <- err
					return
				}
				if i%2 == 0 {
					if err := ix.Delete(sid); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("batch under mutation: %v", err)
	}
}

// TestParallelForCoversRange checks the chunked scheduler visits every
// index exactly once for assorted sizes, worker counts, and chunk sizes.
func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 257} {
		for _, workers := range []int{1, 2, 4, 9} {
			for _, chunk := range []int{1, 7, 64} {
				var mu sync.Mutex
				seen := make([]int, n)
				parallelFor(n, workers, chunk, func(lo, hi int) {
					mu.Lock()
					defer mu.Unlock()
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d workers=%d chunk=%d: index %d visited %d times", n, workers, chunk, i, c)
					}
				}
			}
		}
	}
}

// TestVerifyCandidatesErrorPropagation checks that a fetch failure (sid
// past the store) surfaces as an error from both the serial and parallel
// verification paths rather than a panic or silent drop.
func TestVerifyCandidatesErrorPropagation(t *testing.T) {
	ix, sets := buildSmall(t, 100, 30)
	sig := ix.emb.Sign(sets[0])
	bogus := make([]storage.SID, 60)
	for i := range bogus {
		bogus[i] = storage.SID(1 << 30)
	}
	var stats QueryStats
	if _, err := ix.verifyCandidates(sets[0], sig, bogus, 0, 1, QueryOptions{Workers: 1}, &stats); err == nil {
		t.Fatal("serial verification swallowed a fetch failure")
	}
	stats = QueryStats{}
	if _, err := ix.verifyCandidates(sets[0], sig, bogus, 0, 1, QueryOptions{Workers: 4, MinParallelVerify: 1}, &stats); err == nil {
		t.Fatal("parallel verification swallowed a fetch failure")
	}
}
