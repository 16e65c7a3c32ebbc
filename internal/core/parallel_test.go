package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/minhash"
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
		Embed:    minhash.Options{K: 64, Bits: 8, Seed: seed},
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

// requireSameIndex fails unless a and b have bit-identical signatures,
// filter-index bit positions and snapshot bytes, and agree on query
// answers for a few ranges.
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
	if !bytes.Equal(snapshotBytes(t, a), snapshotBytes(t, b)) {
		t.Fatalf("%s: snapshot bytes differ", label)
	}
	for _, r := range [][2]float64{{0.8, 1.0}, {0.3, 0.6}, {0.0, 0.2}} {
		for _, qi := range []int{0, len(sets) / 2, len(sets) - 1} {
			m1, st1, err := a.QueryWithOptions(sets[qi], r[0], r[1], QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			m2, st2, err := b.QueryWithOptions(sets[qi], r[0], r[1], QueryOptions{})
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
			f2 := par.fis[ord]
			for i := 0; i < f.Tables(); i++ {
				for sid, sig := range serial.sigs {
					key := f.Key(i, sig, 0)
					want := f.Table(i).Probe(key, nil, nil)
					if got := f2.Table(i).Probe(key, nil, nil); !slices.Equal(got, want) {
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

// TestQueryWorkersBounded pins the verification fan-out to the candidate
// count: an absurd Workers answers exactly like a serial query and
// allocates per candidate, not per requested worker.
func TestQueryWorkersBounded(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	want, wantSt, err := ix.QueryWithOptions(sets[0], 0.3, 1.0, QueryOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, gotSt, err := ix.QueryWithOptions(sets[0], 0.3, 1.0, QueryOptions{Workers: 1 << 24, MinParallelVerify: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 4<<20 {
		t.Fatalf("Workers=1<<24 allocated %d bytes; want < 4 MiB", alloc)
	}
	if !slices.Equal(got, want) || gotSt.FetchIO != wantSt.FetchIO || gotSt.Candidates != wantSt.Candidates {
		t.Fatalf("Workers=1<<24 answer differs from Workers=1: %d vs %d matches", len(got), len(want))
	}
}

// runBatch answers n entries the way the public batch does: the worker
// pool is split across at most n batch workers with SplitPool, and each
// batch worker pulls entries and runs them as single queries with its
// share as the query's own Workers.
func runBatch(n, workers int, query func(i, share int)) {
	pool := ResolveWorkers(workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, share := range SplitPool(pool, min(pool, n)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				query(i, share)
			}
		}()
	}
	wg.Wait()
}

// TestQueryBatchMatchesSerial requires a batch of concurrent single
// queries to return, per entry, exactly what a serial query returns —
// matches and exact per-query I/O counters — on the probe and scan arms
// at several pool widths, so pooled scratch shared by concurrent
// queries never leaks between them.
func TestQueryBatchMatchesSerial(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		matches []Match
		stats   QueryStats
		err     error
	}
	for _, arm := range []Arm{ArmProbe, ArmScan} {
		want := make([]answer, len(qs))
		for i, q := range qs {
			m, st, err := ix.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, QueryOptions{Arm: arm})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = answer{m, st, nil}
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got := make([]answer, len(qs))
			runBatch(len(qs), workers, func(i, share int) {
				q, r := qs[i], &got[i]
				r.matches, r.stats, r.err = ix.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, QueryOptions{Workers: share, Arm: arm})
			})
			for i, r := range got {
				label := fmt.Sprintf("arm=%d workers=%d entry %d", arm, workers, i)
				if r.err != nil {
					t.Fatalf("%s: %v", label, r.err)
				}
				if !slices.Equal(r.matches, want[i].matches) {
					t.Fatalf("%s: %d matches differ from the serial %d", label, len(r.matches), len(want[i].matches))
				}
				if r.stats.IndexIO != want[i].stats.IndexIO || r.stats.FetchIO != want[i].stats.FetchIO {
					t.Fatalf("%s: I/O differs: %v/%v vs %v/%v", label,
						&r.stats.IndexIO, &r.stats.FetchIO, &want[i].stats.IndexIO, &want[i].stats.FetchIO)
				}
				if r.stats.Candidates != want[i].stats.Candidates || r.stats.Results != want[i].stats.Results {
					t.Fatalf("%s: counts differ", label)
				}
			}
		}
	}
}

// TestQueryBatchPropagatesErrors checks per-entry error isolation in a
// batch of concurrent single queries: an invalid range fails its own
// entry without poisoning the rest, or the scratch later queries reuse.
func TestQueryBatchPropagatesErrors(t *testing.T) {
	ix, sets := buildSmall(t, 100, 30)
	type entry struct {
		q      set.Set
		lo, hi float64
	}
	batch := []entry{
		{sets[0], 0.5, 1.0},
		{sets[1], 0.9, 0.1}, // inverted
		{sets[2], 0.0, 0.4},
		{sets[3], math.NaN(), 0.5},
		{sets[4], 0.3, 0.8},
	}
	invalid := map[int]bool{1: true, 3: true}
	want := make([][]Match, len(batch))
	for i, b := range batch {
		if !invalid[i] {
			m, _, err := ix.QueryWithOptions(b.q, b.lo, b.hi, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = m
		}
	}
	for pass := 0; pass < 3; pass++ {
		got := make([][]Match, len(batch))
		errs := make([]error, len(batch))
		runBatch(len(batch), 4, func(i, share int) {
			b := batch[i]
			got[i], _, errs[i] = ix.QueryWithOptions(b.q, b.lo, b.hi, QueryOptions{Workers: share})
		})
		for i := range batch {
			switch {
			case invalid[i] && errs[i] == nil:
				t.Fatalf("pass %d entry %d: invalid range [%v, %v] did not fail", pass, i, batch[i].lo, batch[i].hi)
			case !invalid[i] && errs[i] != nil:
				t.Fatalf("pass %d entry %d: valid entry failed: %v", pass, i, errs[i])
			case !invalid[i] && !slices.Equal(got[i], want[i]):
				t.Fatalf("pass %d entry %d: %d matches, want %d", pass, i, len(got[i]), len(want[i]))
			}
		}
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
		plain, plainSt, err := ix.QueryWithOptions(q, 0.4, 0.9, QueryOptions{})
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
		_, plainSt, err := ix.QueryWithOptions(q, 0.85, 1.0, QueryOptions{})
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
	sig := ix.perms.Sign(sets[0])
	bogus := make([]storage.SID, 60)
	for i := range bogus {
		bogus[i] = storage.SID(1 << 30)
	}
	var stats QueryStats
	if _, err := ix.verifyCandidates(sets[0], new(set.Bitmap), sig, bogus, 0, 1, QueryOptions{Workers: 1}, &stats); err == nil {
		t.Fatal("serial verification swallowed a fetch failure")
	}
	stats = QueryStats{}
	if _, err := ix.verifyCandidates(sets[0], new(set.Bitmap), sig, bogus, 0, 1, QueryOptions{Workers: 4, MinParallelVerify: 1}, &stats); err == nil {
		t.Fatal("parallel verification swallowed a fetch failure")
	}
}
