package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"time"

	ssr "repro"
	"repro/internal/set"
	"repro/internal/workload"
)

// spec is one workload's fixed shape. Everything a workload varies lives
// here, so the four workloads share one driver and differ only in data.
type spec struct {
	name    string
	shards  int
	durable bool
	planner bool
	// concurrentWriter runs the writer beside the reader for the whole
	// measured phase.
	concurrentWriter bool
	// addEvery makes the reading client issue one Add per that many
	// queries; each Add invalidates every cached result.
	addEvery int
	// sample is the size of the fixed sample pass, which is also the
	// discarded warm-up. It is sized per workload so that recall and the
	// simulated I/O clock, which repeat exactly for one seed, differ by no
	// more than ~3 % from one seed's draw of queries to another's.
	sample int
	// stream draws a query stream; the sample pass and the measured phase
	// each draw their own from it.
	stream streamFunc
}

// streamFunc draws count queries over a collection of n sets. runSeed fixes
// whatever two streams of one run share (planner_zipf's pool), drawSeed the
// draws themselves.
type streamFunc func(n, count int, runSeed, drawSeed int64) ([]workload.Query, error)

func fixedWidth(minLo, minW, maxW float64) streamFunc {
	return func(n, count int, _, drawSeed int64) ([]workload.Query, error) {
		return workload.Queries(n, workload.QueryParams{
			Count: count, FixedWidth: true, MinLo: minLo, MinWidth: minW, MaxWidth: maxW, Seed: drawSeed,
		})
	}
}

func randomBounds(n, count int, _, drawSeed int64) ([]workload.Query, error) {
	return workload.Queries(n, workload.QueryParams{Count: count, Seed: drawSeed})
}

// plannerPolicy is planner_zipf's planner, sized here and not left to the
// engine's defaults (which these are today): the pool geometry below is
// chosen against these sizes, and the traced run feeds a plan cache of its
// own, built from the same numbers, the lookups the planner makes.
var plannerPolicy = ssr.PlannerPolicy{ResultCacheEntries: 1024, PlanCacheEntries: 256, MutationTolerance: 1024}

// Planner pool geometry: 4096 distinct (sid, range) pairs over 32 range
// templates is 4x the result cache and 1/8 of the plan cache, so both caches
// see hits, misses and evictions.
//
// Every template lies above the plan's highest partition point (about 0.4
// on this collection). The planner answers all of them by direct scan, and
// a scan of such a range costs ~13 ms; a range that reaches below that
// point scans against the 287-table filter index and costs ~400 ms, which
// would leave a ten-second run some 25 queries to take a median over.
//
// One Add per 64 queries holds the result-cache hit ratio near 0.34, so the
// median query is safely a miss. One per 256 holds it at 0.50, where the
// median flips between a 2 us hit and a 13 ms miss from run to run.
const (
	zipfPool      = 4096
	zipfTemplates = 32
	zipfS         = 1.1
	zipfAddEvery  = 64
)

var zipfTemplate = fixedWidth(0.45, 0.05, 0.3)

// zipfStream draws count queries Zipf-distributed over a pool of distinct
// (sid, range) pairs whose ranges come from a few fixed templates.
func zipfStream(n, count int, runSeed, drawSeed int64) ([]workload.Query, error) {
	templates, err := zipfTemplate(n, zipfTemplates, runSeed, runSeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(runSeed + 1))
	pool := make([]workload.Query, 0, zipfPool)
	seen := make(map[[2]int]bool, zipfPool)
	for len(pool) < zipfPool && len(pool) < n*zipfTemplates {
		t := len(pool) % zipfTemplates
		sid := rng.Intn(n)
		if seen[[2]int{sid, t}] {
			continue
		}
		seen[[2]int{sid, t}] = true
		pool = append(pool, workload.Query{SID: sid, Lo: templates[t].Lo, Hi: templates[t].Hi})
	}
	draw := rand.New(rand.NewSource(drawSeed))
	z := rand.NewZipf(draw, zipfS, 1, uint64(len(pool)-1))
	out := make([]workload.Query, count)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out, nil
}

var specs = []spec{
	{name: "narrow_high", shards: 1, sample: 600, stream: fixedWidth(0.8, 0.05, 0.1)},
	{name: "wide_range", shards: 1, sample: 200, stream: fixedWidth(0, 0.5, 0.7)},
	{name: "sharded_mixed", shards: 4, durable: true, concurrentWriter: true, sample: 300, stream: randomBounds},
	{name: "planner_zipf", shards: 1, planner: true, addEvery: zipfAddEvery, sample: 500, stream: zipfStream},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// buildOptions is the common index configuration of every workload.
func buildOptions(shards, budget int) ssr.Options {
	return ssr.Options{Budget: budget, RecallTarget: 0.75, MinHashes: 64, PayloadBytesPerElement: 110, Shards: shards}
}

// generate draws the collection. Its seed is not the run's seed: the
// optimizer's plan is a discrete function of the collection (one seed in
// seven gave narrow_high a plan six times slower), and interned element ids
// follow first appearance, which re-draws every min-hash of the hot pages;
// both swamp the run-to-run spread a regression bound has to sit above. So
// the collection is one fixed corpus, drawn with the generator's own seed,
// and the run's seed draws the traffic.
func generate(n int) ([]set.Set, error) {
	return workload.Generate(workload.Set1Params(n))
}

func elemName(e set.Elem) string { return strconv.FormatUint(uint64(e), 10) }

// newCollection feeds the generated sets through the public string API,
// the way a user of the package would.
func newCollection(sets []set.Set) *ssr.Collection {
	c := ssr.NewCollection()
	var names []string
	for _, s := range sets {
		names = names[:0]
		for _, e := range s.Elems() {
			names = append(names, elemName(e))
		}
		c.Add(names...)
	}
	return c
}

// digestSets and digestQueries fingerprint the inputs, so a change to
// internal/workload that alters them shows as a digest change and not as a
// speed-up.
func digestSets(sets []set.Set) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range sets {
		put(uint64(s.Len()))
		for _, e := range s.Elems() {
			put(uint64(e))
		}
	}
	return h.Sum64()
}

func digestQueries(qs []workload.Query) uint64 {
	h := fnv.New64a()
	for _, q := range qs {
		fmt.Fprintf(h, "%d:%x:%x;", q.SID, math.Float64bits(q.Lo), math.Float64bits(q.Hi))
	}
	return h.Sum64()
}

// writer issues the write lane: 2 Adds of fresh noisy near-copies of
// existing sets to 1 Remove of the oldest sid it added itself. It keeps the
// ledger of acknowledged mutations that the post-run checks read.
type writer struct {
	ix      *ssr.Index
	sets    []set.Set
	rng     *rand.Rand
	fresh   int
	steps   int
	added   []int // acknowledged inserts, oldest first
	sizes   []int // element count of each acknowledged insert
	removed int   // added[:removed] were acknowledged as removed
	lat     []time.Duration
	failed  int
}

func newWriter(ix *ssr.Index, sets []set.Set, seed int64) *writer {
	return &writer{ix: ix, sets: sets, rng: rand.New(rand.NewSource(seed))}
}

// nearCopy copies a random existing set, replacing about a tenth of its
// elements with names no set has used.
func (w *writer) nearCopy() []string {
	src := w.sets[w.rng.Intn(len(w.sets))].Elems()
	out := make([]string, len(src))
	for i, e := range src {
		if w.rng.Float64() < 0.1 {
			out[i] = "w" + strconv.Itoa(w.fresh)
			w.fresh++
		} else {
			out[i] = elemName(e)
		}
	}
	return out
}

func (w *writer) add(elems []string) {
	sid, err := w.ix.Add(elems...)
	if err != nil {
		w.failed++
		return
	}
	w.added = append(w.added, sid)
	w.sizes = append(w.sizes, len(elems))
}

func (w *writer) remove() {
	if err := w.ix.Remove(w.added[w.removed]); err != nil {
		w.failed++
		return
	}
	w.removed++
}

// op performs the next mutation of the 2:1 cycle and times the call into
// the index.
func (w *writer) op() {
	if w.steps%3 == 2 && w.removed < len(w.added) {
		start := time.Now()
		w.remove()
		w.lat = append(w.lat, time.Since(start))
	} else {
		elems := w.nearCopy()
		start := time.Now()
		w.add(elems)
		w.lat = append(w.lat, time.Since(start))
	}
	w.steps++
}
