// Package tuner maintains an online, deletion-aware sketch of the
// collection's similarity distribution D_S and decides when the built
// plan has drifted far enough from it to justify re-running the Section 5
// construction.
//
// The sketch is Lemma 1 pair sampling made incremental: a bounded
// reservoir of member sets (classic reservoir sampling over the insert
// stream) supplies partners, every insert estimates its similarity
// against a few reservoir members from the stored min-hash signatures,
// and the estimates accumulate into a live histogram. Pairs live in a
// bounded ring — old pairs age out as new ones arrive, so the sketch
// tracks the *current* distribution rather than the all-time stream —
// and deletes kill every pair that references the deleted set, removing
// its mass. Memory is O(ReservoirMembers + ReservoirPairs), independent
// of the collection.
//
// Drift is the maximum CDF distance between the live sketch and the
// baseline profile the current plan was derived from, evaluated at the
// plan's partition points — a Kolmogorov–Smirnov statistic restricted to
// exactly the quantiles the equidepth placement (Definition 10) and the
// δ split (Equation 15) depend on. A retune is signalled only past a
// configurable threshold with min-mutation hysteresis, so a handful of
// unlucky samples cannot thrash the plan.
//
// Randomness is injected (Config.Rand), never package-global, following
// the minhash.NewFamilyRand pattern: the caller seeds the tracker, so a
// serial mutation history produces a bit-identical sketch run to run.
//
// Locking. The tracker has one internal mutex and calls nothing that
// locks; it is a leaf in the engine's lock order (engine shard mutex →
// tracker mutex). OnInsert/OnDelete are invoked by the engine under the
// owning shard's mutex, State/Drift by anyone.
package tuner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/minhash"
	"repro/internal/simdist"
)

// Defaults for Config fields left zero.
const (
	DefaultReservoirMembers = 512
	DefaultReservoirPairs   = 4096
	DefaultPairsPerInsert   = 4
	DefaultDriftThreshold   = 0.15
	DefaultMinMutations     = 512
	DefaultMinPairs         = 256
)

// Config parameterizes a Tracker.
type Config struct {
	// Bins is the live histogram resolution (0 = simdist.DefaultBins).
	// It should match the baseline's resolution; the CDF comparison is
	// well-defined either way.
	Bins int
	// ReservoirMembers bounds the member reservoir that supplies pair
	// partners (0 selects DefaultReservoirMembers).
	ReservoirMembers int
	// ReservoirPairs bounds the live pair sample (0 selects
	// DefaultReservoirPairs). Older pairs age out as new ones arrive.
	ReservoirPairs int
	// PairsPerInsert is how many reservoir partners each insert is
	// estimated against (0 selects DefaultPairsPerInsert).
	PairsPerInsert int
	// DriftThreshold is the max-CDF-distance past which ShouldRetune
	// fires, in [0, 1] (0 selects DefaultDriftThreshold). New rejects
	// any other value with ErrDriftThreshold.
	DriftThreshold float64
	// MinMutations is the hysteresis: ShouldRetune stays quiet until at
	// least this many mutations accumulated since the last rebase
	// (0 selects DefaultMinMutations; negative disables the gate).
	MinMutations int
	// MinPairs is the minimum live pair count before the sketch is
	// trusted at all (0 selects DefaultMinPairs; negative disables).
	MinPairs int
	// Rand drives reservoir replacement and partner choice. Required —
	// the caller owns seeding (determinism contract).
	Rand *rand.Rand
}

func (c Config) withDefaults() Config {
	if c.ReservoirMembers == 0 {
		c.ReservoirMembers = DefaultReservoirMembers
	}
	if c.ReservoirPairs == 0 {
		c.ReservoirPairs = DefaultReservoirPairs
	}
	if c.PairsPerInsert == 0 {
		c.PairsPerInsert = DefaultPairsPerInsert
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = DefaultDriftThreshold
	}
	if c.MinMutations == 0 {
		c.MinMutations = DefaultMinMutations
	}
	if c.MinPairs == 0 {
		c.MinPairs = DefaultMinPairs
	}
	return c
}

// pair is one sampled similarity estimate between members a and b.
type pair struct {
	a, b uint32
	est  float64
	dead bool
}

// State is a point-in-time snapshot of the tracker for reporting.
type State struct {
	// Mutations counts inserts + deletes since the last rebase (retune
	// or baseline installation).
	Mutations uint64
	// Inserts counts inserts seen over the tracker's lifetime.
	Inserts uint64
	// LivePairs is the current sketch size (dead and aged-out pairs
	// excluded).
	LivePairs int
	// Members is the current member-reservoir occupancy.
	Members int
	// LastDrift is the drift value of the most recent Drift/ShouldRetune
	// evaluation (0 before any).
	LastDrift float64
	// LastCheck is when that evaluation ran (zero before any).
	LastCheck time.Time
}

// Tracker is the online D_S sketch. Safe for concurrent use.
type Tracker struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand

	// members is the reservoir of live global sids; pos inverts it and
	// sigs holds each member's signature (partners need one).
	members []uint32
	pos     map[uint32]int
	sigs    map[uint32]minhash.Signature
	// inserts counts the reservoir's stream position (classic reservoir
	// sampling needs the all-time count, not the live count).
	inserts uint64

	// ring is the bounded pair sample; head is the next overwrite slot
	// and filled counts slots ever written (ring is full once filled ==
	// len(ring)). refs counts, per global sid, how many live ring pairs
	// reference it — a delete with no entry skips the ring scan entirely.
	ring   []pair
	head   int
	filled int
	live   int
	refs   map[uint32]int
	sketch *simdist.Histogram

	baseline  *simdist.Histogram
	mutations uint64
	lastDrift float64
	lastCheck time.Time
}

// ErrDriftThreshold rejects a Config.DriftThreshold outside [0, 1]. The
// drift is a CDF distance in [0, 1], so a NaN threshold or one above 1
// would never fire and a negative one would fire on every check.
var ErrDriftThreshold = errors.New("tuner: DriftThreshold must be in [0, 1]")

// New validates the config and returns an empty tracker. The baseline is
// installed separately (SetBaseline) because a freshly loaded index may
// not know its profile yet.
func New(cfg Config) (*Tracker, error) {
	if cfg.Rand == nil {
		return nil, fmt.Errorf("tuner: Config.Rand is required (inject a seeded *rand.Rand; package-global randomness is banned)")
	}
	if !(cfg.DriftThreshold >= 0 && cfg.DriftThreshold <= 1) {
		return nil, fmt.Errorf("%w, got %g", ErrDriftThreshold, cfg.DriftThreshold)
	}
	cfg = cfg.withDefaults()
	if cfg.ReservoirMembers < 2 {
		return nil, fmt.Errorf("tuner: ReservoirMembers must be >= 2, got %d", cfg.ReservoirMembers)
	}
	if cfg.ReservoirPairs < 1 {
		return nil, fmt.Errorf("tuner: ReservoirPairs must be >= 1, got %d", cfg.ReservoirPairs)
	}
	if cfg.PairsPerInsert < 1 {
		return nil, fmt.Errorf("tuner: PairsPerInsert must be >= 1, got %d", cfg.PairsPerInsert)
	}
	return &Tracker{
		cfg:    cfg,
		rng:    cfg.Rand,
		pos:    make(map[uint32]int),
		sigs:   make(map[uint32]minhash.Signature),
		ring:   make([]pair, cfg.ReservoirPairs),
		refs:   make(map[uint32]int),
		sketch: simdist.NewHistogram(cfg.Bins),
	}, nil
}

// SetBaseline installs (a clone of) the profile the current plan was
// derived from and resets the mutation hysteresis. Nil clears it, which
// silences ShouldRetune until a baseline exists again.
func (t *Tracker) SetBaseline(h *simdist.Histogram) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h == nil {
		t.baseline = nil
	} else {
		t.baseline = h.Clone()
	}
	t.mutations = 0
}

// OnInsert records a newly inserted live set: it may join the member
// reservoir, and it is estimated against PairsPerInsert distinct
// reservoir members to extend the pair sample. sig must be g's stored
// signature; a nil sig only bumps the mutation counter.
func (t *Tracker) OnInsert(g uint32, sig minhash.Signature) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mutations++
	if sig == nil {
		return
	}
	t.samplePairs(g, sig)
	t.admit(g, sig)
}

// samplePairs estimates g against up to PairsPerInsert current members.
func (t *Tracker) samplePairs(g uint32, sig minhash.Signature) {
	n := len(t.members)
	if n == 0 {
		return
	}
	draws := t.cfg.PairsPerInsert
	if draws > n {
		draws = n
	}
	for d := 0; d < draws; d++ {
		partner := t.members[t.rng.Intn(n)]
		if partner == g {
			continue
		}
		est, err := minhash.Estimate(sig, t.sigs[partner])
		if err != nil {
			// Signature-length mismatch cannot happen for one engine's
			// sets; skip rather than poison the sketch.
			continue
		}
		t.push(pair{a: g, b: partner, est: est})
	}
}

// push adds a pair to the ring, aging out whatever occupied the slot.
func (t *Tracker) push(p pair) {
	if t.filled == len(t.ring) {
		t.evict(t.head) // no-op if the slot's pair already died
	} else {
		t.filled++
	}
	t.ring[t.head] = p
	t.head = (t.head + 1) % len(t.ring)
	t.live++
	t.refs[p.a]++
	t.refs[p.b]++
	t.sketch.Add(p.est, 1)
}

// evict removes the live pair at slot i from the sketch and refcounts.
func (t *Tracker) evict(i int) {
	p := &t.ring[i]
	if p.dead {
		return
	}
	p.dead = true
	t.live--
	t.sketch.Add(p.est, -1)
	t.unref(p.a)
	t.unref(p.b)
}

func (t *Tracker) unref(g uint32) {
	if c := t.refs[g]; c <= 1 {
		delete(t.refs, g)
	} else {
		t.refs[g] = c - 1
	}
}

// admit runs one reservoir-sampling step for the member reservoir.
func (t *Tracker) admit(g uint32, sig minhash.Signature) {
	t.inserts++
	if _, ok := t.pos[g]; ok {
		return
	}
	if len(t.members) < t.cfg.ReservoirMembers {
		t.pos[g] = len(t.members)
		t.members = append(t.members, g)
		t.sigs[g] = sig
		return
	}
	j := t.rng.Intn(int(t.inserts))
	if j >= t.cfg.ReservoirMembers {
		return
	}
	victim := t.members[j]
	delete(t.pos, victim)
	delete(t.sigs, victim)
	t.members[j] = g
	t.pos[g] = j
	t.sigs[g] = sig
}

// OnDelete makes the sketch deletion-aware: the set leaves the member
// reservoir and every live pair referencing it dies, removing its mass
// from the sketch.
func (t *Tracker) OnDelete(g uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mutations++
	if i, ok := t.pos[g]; ok {
		last := len(t.members) - 1
		moved := t.members[last]
		t.members[i] = moved
		t.pos[moved] = i
		t.members = t.members[:last]
		delete(t.pos, g)
		delete(t.sigs, g)
	}
	if _, ok := t.refs[g]; !ok {
		return
	}
	for i := range t.ring {
		p := &t.ring[i]
		if !p.dead && (p.a == g || p.b == g) {
			t.evict(i)
		}
	}
}

// Sketch returns a clone of the live histogram.
func (t *Tracker) Sketch() *simdist.Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sketch.Clone()
}

// Drift returns the maximum CDF distance between the live sketch and the
// baseline over the given evaluation points (the current plan's cuts plus
// its δ, typically). ok is false when the sketch is not yet trustworthy:
// no baseline, no evaluation points, or fewer than MinPairs live pairs.
func (t *Tracker) Drift(points []float64) (drift float64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.driftLocked(points)
}

func (t *Tracker) driftLocked(points []float64) (float64, bool) {
	if t.baseline == nil || len(points) == 0 || t.live < t.cfg.MinPairs {
		return 0, false
	}
	max := 0.0
	for _, c := range points {
		d := t.sketch.CDF(c) - t.baseline.CDF(c)
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	t.lastDrift = max
	t.lastCheck = time.Now()
	return max, true
}

// ShouldRetune applies the full decision rule: a trustworthy drift value
// past DriftThreshold with at least MinMutations mutations since the last
// rebase. The drift value is returned either way so callers can report
// it.
func (t *Tracker) ShouldRetune(points []float64) (drift float64, retune bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	drift, ok := t.driftLocked(points)
	if !ok {
		return drift, false
	}
	if t.cfg.MinMutations > 0 && t.mutations < uint64(t.cfg.MinMutations) {
		return drift, false
	}
	return drift, drift > t.cfg.DriftThreshold
}

// Rebase is called after a plan swap: the new profile becomes the
// baseline and the mutation hysteresis restarts. The live sketch keeps
// its pairs — it already reflects the distribution the new plan was
// derived from.
func (t *Tracker) Rebase(newBaseline *simdist.Histogram) {
	t.SetBaseline(newBaseline)
}

// State snapshots the tracker for stats endpoints and tests.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return State{
		Mutations: t.mutations,
		Inserts:   t.inserts,
		LivePairs: t.live,
		Members:   len(t.members),
		LastDrift: t.lastDrift,
		LastCheck: t.lastCheck,
	}
}
