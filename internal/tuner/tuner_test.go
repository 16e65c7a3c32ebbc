package tuner

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/minhash"
	"repro/internal/set"
	"repro/internal/simdist"
)

func testSignatures(t *testing.T, n, universe, size int, seed int64) []minhash.Signature {
	t.Helper()
	fam, err := minhash.NewFamily(24, seed)
	if err != nil {
		t.Fatalf("NewFamily: %v", err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	sigs := make([]minhash.Signature, n)
	for i := range sigs {
		elems := make([]set.Elem, 0, size)
		seen := make(map[set.Elem]bool, size)
		for len(elems) < size {
			e := set.Elem(rng.Intn(universe))
			if !seen[e] {
				seen[e] = true
				elems = append(elems, e)
			}
		}
		sigs[i] = fam.Sign(set.New(elems...))
	}
	return sigs
}

func newTestTracker(t *testing.T, cfg Config) *Tracker {
	t.Helper()
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(42))
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestNewRequiresRand(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil Rand; injected randomness is mandatory")
	}
}

// TestDriftThresholdBounds pins DriftThreshold to the range of the drift it
// is compared with: 0 (the default) through 1 are accepted, and every other
// value is rejected with ErrDriftThreshold.
func TestDriftThresholdBounds(t *testing.T) {
	for _, tc := range []struct {
		threshold float64
		ok        bool
	}{
		{0, true},
		{0.15, true},
		{1, true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1, false},
		{-0.01, false},
		{1.01, false},
	} {
		_, err := New(Config{DriftThreshold: tc.threshold, Rand: rand.New(rand.NewSource(1))})
		if tc.ok && err != nil {
			t.Errorf("threshold %g rejected: %v", tc.threshold, err)
		}
		if !tc.ok && !errors.Is(err, ErrDriftThreshold) {
			t.Errorf("threshold %g: err %v, want ErrDriftThreshold", tc.threshold, err)
		}
	}
}

func TestDeterministicSketch(t *testing.T) {
	sigs := testSignatures(t, 200, 500, 30, 7)
	build := func() *simdist.Histogram {
		tr := newTestTracker(t, Config{Rand: rand.New(rand.NewSource(99))})
		for i, s := range sigs {
			tr.OnInsert(uint32(i), s)
		}
		for i := 0; i < 50; i += 5 {
			tr.OnDelete(uint32(i))
		}
		return tr.Sketch()
	}
	a, b := build(), build()
	ba, bb := a.RawBins(), b.RawBins()
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("bin %d differs across identical runs: %v vs %v", i, ba[i], bb[i])
		}
	}
	if a.Total() != b.Total() {
		t.Fatalf("totals differ: %v vs %v", a.Total(), b.Total())
	}
}

func TestReservoirBounds(t *testing.T) {
	sigs := testSignatures(t, 2000, 500, 30, 3)
	cfg := Config{ReservoirMembers: 64, ReservoirPairs: 256, PairsPerInsert: 2}
	tr := newTestTracker(t, cfg)
	for i, s := range sigs {
		tr.OnInsert(uint32(i), s)
	}
	st := tr.State()
	if st.Members != 64 {
		t.Fatalf("member reservoir = %d, want 64", st.Members)
	}
	if st.LivePairs > 256 {
		t.Fatalf("live pairs = %d exceeds ring capacity 256", st.LivePairs)
	}
	if st.LivePairs != int(tr.Sketch().Total()) {
		t.Fatalf("sketch mass %v disagrees with live pairs %d", tr.Sketch().Total(), st.LivePairs)
	}
	if st.Inserts != 2000 {
		t.Fatalf("inserts = %d, want 2000", st.Inserts)
	}
}

func TestDeleteRemovesMass(t *testing.T) {
	sigs := testSignatures(t, 300, 500, 30, 11)
	tr := newTestTracker(t, Config{ReservoirMembers: 128, ReservoirPairs: 1024})
	for i, s := range sigs {
		tr.OnInsert(uint32(i), s)
	}
	before := tr.State()
	if before.LivePairs == 0 {
		t.Fatal("sketch empty after 300 inserts")
	}
	// Delete everything; all pairs must die and all mass must drain.
	for i := range sigs {
		tr.OnDelete(uint32(i))
	}
	after := tr.State()
	if after.LivePairs != 0 {
		t.Fatalf("live pairs = %d after deleting every member, want 0", after.LivePairs)
	}
	if got := tr.Sketch().Total(); got != 0 {
		t.Fatalf("sketch mass = %v after deleting everything, want 0", got)
	}
	if after.Members != 0 {
		t.Fatalf("members = %d after deleting everything, want 0", after.Members)
	}
	if len(tr.refs) != 0 {
		t.Fatalf("refs map retained %d entries after full drain", len(tr.refs))
	}
}

func TestRingAgesOutOldPairs(t *testing.T) {
	sigs := testSignatures(t, 1000, 500, 30, 5)
	tr := newTestTracker(t, Config{ReservoirMembers: 32, ReservoirPairs: 64, PairsPerInsert: 4})
	for i, s := range sigs {
		tr.OnInsert(uint32(i), s)
	}
	st := tr.State()
	if st.LivePairs != 64 {
		t.Fatalf("live pairs = %d, want full ring 64", st.LivePairs)
	}
	if got := int(tr.Sketch().Total()); got != 64 {
		t.Fatalf("sketch mass = %d, want 64 (old pairs must age out)", got)
	}
}

func TestDriftDetectsShift(t *testing.T) {
	low := testSignatures(t, 400, 2000, 30, 21) // sparse universe → low similarity
	tr := newTestTracker(t, Config{ReservoirMembers: 128, ReservoirPairs: 2048, PairsPerInsert: 4, MinPairs: 64, MinMutations: 1})
	for i, s := range low {
		tr.OnInsert(uint32(i), s)
	}
	tr.SetBaseline(tr.Sketch())
	points := []float64{0.1, 0.25, 0.5, 0.75}
	if d, ok := tr.Drift(points); !ok || d > 0.05 {
		t.Fatalf("drift vs own sketch = (%v, %v), want ~0 and trustworthy", d, ok)
	}
	if _, retune := tr.ShouldRetune(points); retune {
		t.Fatal("ShouldRetune fired with no drift")
	}
	// Shift the stream: near-duplicate pairs (high similarity mass).
	fam, err := minhash.NewFamily(24, 77)
	if err != nil {
		t.Fatalf("NewFamily: %v", err)
	}
	rng := rand.New(rand.NewSource(31))
	next := uint32(10000)
	for b := 0; b < 400; b++ {
		elems := make([]set.Elem, 0, 30)
		seen := make(map[set.Elem]bool, 30)
		for len(elems) < 30 {
			e := set.Elem(rng.Intn(200))
			if !seen[e] {
				seen[e] = true
				elems = append(elems, e)
			}
		}
		tr.OnInsert(next, fam.Sign(set.New(elems...)))
		next++
		mirror := append([]set.Elem(nil), elems...)
		mirror[0] = set.Elem(200 + rng.Intn(50)) // one element changed → Jaccard ≈ 0.93
		tr.OnInsert(next, fam.Sign(set.New(mirror...)))
		next++
	}
	d, ok := tr.Drift(points)
	if !ok {
		t.Fatal("drift not trustworthy after 800 further inserts")
	}
	if d <= DefaultDriftThreshold {
		t.Fatalf("drift = %v after a high-similarity flood, want > %v", d, DefaultDriftThreshold)
	}
	if _, retune := tr.ShouldRetune(points); !retune {
		t.Fatalf("ShouldRetune did not fire at drift %v", d)
	}
	// Rebase onto the new sketch: drift collapses, hysteresis resets.
	tr.Rebase(tr.Sketch())
	if d2, ok2 := tr.Drift(points); !ok2 || d2 > 0.05 {
		t.Fatalf("post-rebase drift = (%v, %v), want ~0", d2, ok2)
	}
	if st := tr.State(); st.Mutations != 0 {
		t.Fatalf("mutations = %d after rebase, want 0", st.Mutations)
	}
}

func TestHysteresisAndTrustGates(t *testing.T) {
	sigs := testSignatures(t, 64, 500, 30, 13)
	tr := newTestTracker(t, Config{ReservoirMembers: 32, ReservoirPairs: 512, MinPairs: 100000, MinMutations: 100000})
	for i, s := range sigs {
		tr.OnInsert(uint32(i), s)
	}
	tr.SetBaseline(simdist.NewHistogram(0)) // empty baseline: CDF 0 everywhere → max drift
	if _, ok := tr.Drift([]float64{0.5}); ok {
		t.Fatal("Drift trusted a sketch below MinPairs")
	}
	if _, retune := tr.ShouldRetune([]float64{0.5}); retune {
		t.Fatal("ShouldRetune fired below MinPairs/MinMutations")
	}
	// No baseline at all → never retune.
	tr.SetBaseline(nil)
	if _, ok := tr.Drift([]float64{0.5}); ok {
		t.Fatal("Drift trusted a sketch with no baseline")
	}
}

func TestConcurrentAccess(t *testing.T) {
	sigs := testSignatures(t, 500, 500, 30, 17)
	tr := newTestTracker(t, Config{ReservoirMembers: 64, ReservoirPairs: 512})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tr.State()
			tr.Drift([]float64{0.3, 0.6})
			tr.Sketch()
		}
	}()
	for i, s := range sigs {
		tr.OnInsert(uint32(i), s)
		if i%3 == 0 {
			tr.OnDelete(uint32(i))
		}
	}
	<-done
}
