// Package engine partitions the paper's index across independently locked
// shards. It sits between the public ssr API and internal/core: a
// deterministic router (seeded hash of global sid → shard) distributes
// sets across Options.Shards core.Index instances, writes to different
// shards proceed concurrently under per-shard locks, and queries scatter
// across all shards and gather with the core's sorted-merge order.
//
// Determinism contract. Build profiles the similarity distribution D_S
// once over the whole collection (exactly as a monolithic core.Build
// would) and hands every shard that shared histogram, so every shard runs
// the optimizer on identical input and derives an identical plan with
// identical per-FI seeds. A set's filter candidacy depends only on (its
// signature, the query signature, the plan's sampled bit positions) —
// none of which vary with shard membership — so the union of per-shard
// candidates equals the monolithic candidate set and exact-verified
// matches are identical for every shard count. For a fixed (seed, Shards)
// the whole build is bit-identical, preserving the repo's determinism
// invariant. One shard is the same pipeline with one partition: its core
// is byte-identical to a core.Build of the whole collection.
//
// Sid spaces. Callers see global sids (dense allocation order, exactly the
// pre-engine numbering). Each shard's core.Index has its own dense local
// sid space; the engine maintains the global→local table (locals, guarded
// by gmu) and each shard's local→global table (toGlobal, guarded by the
// shard mutex). On a one-shard engine both tables are the identity, and
// two rules keep them so, because a one-shard engine persists as a bare
// core snapshot (SSRIDX1), which carries no sid map: Save writes that
// snapshot, and sids stay dense — Reserve allocates nothing and Apply
// accepts only the next sid.
//
// Plan generations. The engine's query-serving state (the per-shard core
// indexes plus the global profile they were planned from) lives in an
// immutable planView behind an atomic pointer. Queries load the view once
// and answer entirely from that one generation; the adaptive re-tuner
// (retune.go) builds a new generation off-lock and swaps the pointer
// while holding every shard mutex, so readers never block on a retune and
// mutators always address a stable generation.
//
// Lock order: durable shard mutex → engine shard mutex → engine mapping
// lock (gmu) → core index lock. The collection lock of the public layer
// is a leaf: it never wraps an engine call. The drift tracker's internal
// mutex is likewise a leaf under the engine shard mutex. The planner's
// cache mutexes (internal/plan) sit OUTSIDE — above — this entire chain:
// cache lookups and stores happen while holding no engine or core lock,
// and no engine code may touch a cache with any chain lock held.
// Invalidation is lazy (generation + mutation-counter tokens checked at
// lookup), so mutation and retune paths never call into the caches at
// all.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/storage"
	"repro/internal/tuner"
)

// MaxShards bounds Options.Shards (and snapshot validation): far above any
// sensible deployment, low enough that a corrupt shard count cannot drive
// a huge allocation.
const MaxShards = 1 << 10

// localUnassigned marks a global sid that was reserved but never applied
// (a crash between reservation and apply, or a failed insert). Such holes
// are never returned by queries and cannot be deleted.
const localUnassigned = ^uint32(0)

// Options configures Build.
type Options struct {
	// Shards is the number of independent core indexes; <= 1 builds one
	// (the default, bit-identical to a core.Build of the collection).
	Shards int
	// RouterSeed seeds the sid → shard hash. It must be stable for the
	// life of the index (snapshots persist it).
	RouterSeed int64
	// Core configures each shard's build. Distribution and
	// PrecomputedSignatures, when set, are treated as global (whole
	// collection) and partitioned by the engine.
	Core core.Options
}

// shard is one partition's mutation state: its local→global sid table
// and the retune journal. The core index itself lives in the planView —
// it changes identity on a plan swap while the shard's sid mapping does
// not (local sids are stable across generations).
type shard struct {
	// mu serializes mutations to this shard and guards toGlobal and the
	// journal. Queries do not take it (they ride the core read lock)
	// except for the brief capture of the toGlobal header.
	mu sync.Mutex
	// toGlobal maps shard-local sids (dense core allocation order) to
	// global sids. Entries are append-only and immutable once written.
	toGlobal []uint32
	// journalOn records mutations into journal while a retune rebuilds
	// this shard off-lock; the ops replay into the new core at swap so
	// the new generation equals the old one's state at swap time.
	journalOn bool
	journal   []journalOp
	// muts counts applied mutations (inserts + deletes) on this shard,
	// monotonically. The planner snapshots every shard's counter into its
	// cache tokens; a later mismatch invalidates the entry. Bumped under
	// sh.mu by noteInsert/noteDelete (journal replay into a new plan
	// generation does not bump — the generation change itself
	// invalidates), read lock-free.
	muts atomic.Uint64
}

// journalOp is one mutation recorded during a retune's rebuild window.
// Inserts carry the set (the new core re-signs it identically — same
// embedding family); the local sid is asserted at replay.
type journalOp struct {
	del   bool
	local uint32
	s     set.Set
}

// planView is one immutable generation of the query-serving state: the
// per-shard cores all planned from one global profile. gen counts plan
// swaps (0 = the build-time plan); hist is the profile this generation
// was tuned to (nil for loaded engines until a retune or AdoptTuneState).
type planView struct {
	gen   uint64
	cores []*core.Index
	hist  *simdist.Histogram
}

// Engine is a sharded index. It is safe for concurrent use; see the
// package comment for the locking discipline.
type Engine struct {
	shards     []*shard
	routerSeed int64
	// view is the current plan generation. Queries load it exactly once;
	// mutators load it under their shard mutex (a swap holds every shard
	// mutex, so the view cannot change under a held one).
	view atomic.Pointer[planView]

	// gmu guards locals.
	gmu sync.RWMutex
	// locals maps global sids to shard-local sids (shard identity comes
	// from the router).
	locals []uint32

	// tmu serializes retunes (at most one rebuild in flight per engine).
	tmu sync.Mutex
	// tracker is the online D_S drift sketch (nil until EnableTuning).
	tracker atomic.Pointer[tuner.Tracker]

	// scatterPool recycles per-query scatter scratch (query.go); the
	// per-shard stats slice is excluded because it escapes into the
	// returned QueryStats.PerShard.
	scatterPool sync.Pool

	// planner is the cost-based query planner and its caches (planner.go);
	// nil until EnablePlanner. Swapped atomically so queries observe a
	// consistent (policy, caches) pair.
	planner atomic.Pointer[plannerState]
}

// loadView returns the current plan generation.
func (e *Engine) loadView() *planView { return e.view.Load() }

// setView installs the initial generation at construction time.
func (e *Engine) setView(gen uint64, cores []*core.Index, hist *simdist.Histogram) {
	e.view.Store(&planView{gen: gen, cores: cores, hist: hist})
}

// Build constructs the engine over the collection: it signs the
// collection, profiles D_S and plans once globally (core.Prepare),
// partitions sets by the router, and builds every shard from the shared
// plan (see the package comment for why that preserves cross-shard-count
// result identity).
func Build(sets []set.Set, opt Options) (*Engine, error) {
	n := max(opt.Shards, 1)
	if n > MaxShards {
		return nil, fmt.Errorf("engine: %d shards exceeds the maximum %d", n, MaxShards)
	}
	if opt.Core.Tombstones != nil {
		return nil, fmt.Errorf("engine: Tombstones are not supported by engine builds (shards load through Assemble)")
	}
	// One optimizer run, globally. Every shard would derive this very plan
	// from (D_S, Plan) anyway, so installing it as each shard's override
	// changes nothing in the built bytes while sparing N − 1 optimizer
	// runs. copt.Plan stays in each shard's build options: the re-tuner
	// echoes its Budget / RecallTarget / SignatureK.
	copt, err := core.Prepare(sets, opt.Core)
	if err != nil {
		return nil, err
	}

	// Partition by router. Global order is preserved within each shard,
	// so for a fixed (seed, Shards) the partition — and with it every
	// shard build — is bit-identical run to run.
	type part struct {
		sets     []set.Set
		sigs     []minhash.Signature
		toGlobal []uint32
	}
	parts := make([]part, n)
	locals := make([]uint32, len(sets))
	for g := range sets {
		si := shardOf(opt.RouterSeed, n, uint32(g))
		p := &parts[si]
		locals[g] = uint32(len(p.toGlobal))
		p.sets = append(p.sets, sets[g])
		p.sigs = append(p.sigs, copt.PrecomputedSignatures[g])
		p.toGlobal = append(p.toGlobal, uint32(g))
	}

	e := &Engine{
		shards:     make([]*shard, n),
		routerSeed: opt.RouterSeed,
		locals:     locals,
	}
	// Build shard cores in parallel, splitting the worker pool so the
	// fan-out never oversubscribes beyond the one-worker-per-shard floor.
	// core.Build is bit-identical for every worker count, so the parallel
	// build produces exactly the bytes the serial loop did.
	shares := core.SplitPool(core.ResolveWorkers(copt.Workers), n)
	cores := make([]*core.Index, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := range parts {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sopt := copt
			sopt.PrecomputedSignatures = parts[si].sigs
			sopt.Workers = shares[si]
			cores[si], errs[si] = core.Build(parts[si].sets, sopt)
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: building shard %d: %w", si, err)
		}
	}
	for si := range parts {
		e.shards[si] = &shard{toGlobal: parts[si].toGlobal}
	}
	e.setView(0, cores, copt.Distribution)
	return e, nil
}

// Assemble reconstructs an engine from per-shard core indexes and their
// local→global tables — the load side of snapshots and per-shard
// recovery. It validates the mapping end to end: table lengths match each
// core's allocated sid space, every global sid is in range and routes to
// the shard that claims it, and no global sid appears twice.
func Assemble(routerSeed int64, cores []*core.Index, globals [][]uint32, numGlobals int) (*Engine, error) {
	n := len(cores)
	if n < 1 {
		return nil, fmt.Errorf("engine: Assemble needs at least 1 shard")
	}
	if n > MaxShards {
		return nil, fmt.Errorf("engine: %d shards exceeds the maximum %d", n, MaxShards)
	}
	if len(globals) != n {
		return nil, fmt.Errorf("engine: %d global tables for %d shards", len(globals), n)
	}
	if numGlobals < 0 || numGlobals > maxSnapshotGlobals {
		return nil, fmt.Errorf("engine: global sid space %d out of range", numGlobals)
	}
	locals := make([]uint32, numGlobals)
	for i := range locals {
		locals[i] = localUnassigned
	}
	e := &Engine{
		shards:     make([]*shard, n),
		routerSeed: routerSeed,
		locals:     locals,
	}
	for si, ix := range cores {
		tg := globals[si]
		if got := ix.NumAllocated(); got != len(tg) {
			return nil, fmt.Errorf("engine: shard %d allocates %d sids but maps %d", si, got, len(tg))
		}
		for local, g := range tg {
			if int(g) >= numGlobals {
				return nil, fmt.Errorf("engine: shard %d maps local %d to global %d beyond space %d", si, local, g, numGlobals)
			}
			if shardOf(routerSeed, n, g) != si {
				return nil, fmt.Errorf("engine: global sid %d does not route to shard %d", g, si)
			}
			if locals[g] != localUnassigned {
				return nil, fmt.Errorf("engine: global sid %d mapped by two shards", g)
			}
			locals[g] = uint32(local)
		}
		e.shards[si] = &shard{toGlobal: tg}
	}
	e.setView(0, append([]*core.Index(nil), cores...), nil)
	return e, nil
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardOf returns the shard a global sid routes to (always 0 on a
// one-shard engine).
func (e *Engine) ShardOf(g uint32) int { return shardOf(e.routerSeed, len(e.shards), g) }

// ShardCore exposes shard si's core index in the current plan generation
// (benchmarks, experiments, and the recovery harness; not a stable API).
func (e *Engine) ShardCore(si int) *core.Index { return e.loadView().cores[si] }

// RouterSeed returns the seed the sid → shard hash was built with.
func (e *Engine) RouterSeed() int64 { return e.routerSeed }

// Insert routes a new set to its shard and returns its global sid. Writes
// to different shards proceed concurrently; writes to one shard
// serialize on its mutex. It is Reserve and Apply in one step, safe
// without any lock of the caller's: a one-shard engine reserves under its
// shard mutex.
func (e *Engine) Insert(s set.Set) (uint32, error) {
	apply := e.Apply
	if len(e.shards) == 1 {
		// One shard keeps its sids dense (its bare SSRIDX1 snapshot has
		// no sid map), so the next sid is read and applied under one hold
		// of the shard mutex.
		sh := e.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		apply = e.applyLocked
	}
	g, si := e.Reserve()
	if err := apply(si, g, s); err != nil {
		return 0, err
	}
	return g, nil
}

// noteInsert journals an applied insert while a retune is in flight and
// bumps the shard's mutation counter. Caller holds sh.mu.
func (sh *shard) noteInsert(local uint32, s set.Set) {
	sh.muts.Add(1)
	if sh.journalOn {
		sh.journal = append(sh.journal, journalOp{local: local, s: s})
	}
}

// noteDelete journals an applied delete while a retune is in flight and
// bumps the shard's mutation counter. Caller holds sh.mu.
func (sh *shard) noteDelete(local uint32) {
	sh.muts.Add(1)
	if sh.journalOn {
		sh.journal = append(sh.journal, journalOp{del: true, local: local})
	}
}

// trackInsert feeds an applied insert to the drift tracker (if tuning is
// enabled). Caller holds the owning shard's mutex; the tracker mutex is a
// leaf under it.
func (e *Engine) trackInsert(ix *core.Index, g, local uint32) {
	if tr := e.tracker.Load(); tr != nil {
		tr.OnInsert(g, ix.Signature(storage.SID(local)))
	}
}

// trackDelete feeds an applied delete to the drift tracker.
func (e *Engine) trackDelete(g uint32) {
	if tr := e.tracker.Load(); tr != nil {
		tr.OnDelete(g)
	}
}

// Reserve returns the next global sid and the shard it routes to, without
// applying anything; Apply completes it. The durability layer uses the
// split to lock the owning shard's log lane before applying, so per-shard
// apply order always equals per-shard log order. A sharded engine
// allocates the sid as a hole (if Apply never follows, it stays one). A
// one-shard engine allocates nothing — its global sids are its core sids,
// so the next sid is simply the core's next — and the caller must
// serialize Reserve through Apply itself, or Apply rejects the sid.
func (e *Engine) Reserve() (g uint32, si int) {
	if len(e.shards) == 1 {
		// Dense sids: a bare SSRIDX1 snapshot has no sid map.
		return uint32(e.NumAllocated()), 0
	}
	e.gmu.Lock()
	g = uint32(len(e.locals))
	e.locals = append(e.locals, localUnassigned)
	e.gmu.Unlock()
	return g, e.ShardOf(g)
}

// Apply inserts s as global sid g into shard si: the second half of a
// live Reserve, and the whole of a log replay, where g comes from a WAL
// record. A sid must route to si and may be applied once. On a sharded
// engine the global sid space grows as needed, so sids a crash skipped
// stay holes. On a one-shard engine g must be the next core sid. Local
// sids are assigned in per-shard arrival order (which may differ from
// global order under concurrency — the toGlobal table is the record).
func (e *Engine) Apply(si int, g uint32, s set.Set) error {
	if si < 0 || si >= len(e.shards) {
		return fmt.Errorf("engine: shard %d out of range [0, %d)", si, len(e.shards))
	}
	if want := e.ShardOf(g); want != si {
		return fmt.Errorf("engine: sid %d routes to shard %d, not %d", g, want, si)
	}
	sh := e.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return e.applyLocked(si, g, s)
}

// applyLocked is Apply under shard si's mutex.
func (e *Engine) applyLocked(si int, g uint32, s set.Set) error {
	sh := e.shards[si]
	ix := e.loadView().cores[si]
	e.gmu.RLock()
	next := uint32(len(e.locals))
	applied := g < next && e.locals[g] != localUnassigned
	e.gmu.RUnlock()
	if len(e.shards) == 1 && g != next {
		// Dense sids: a bare SSRIDX1 snapshot has no sid map.
		return fmt.Errorf("engine: sid %d is not the next sid %d of a one-shard engine", g, next)
	}
	if applied {
		return fmt.Errorf("engine: sid %d is already applied", g)
	}
	local := uint32(len(sh.toGlobal))
	// Publish the mapping before the core insert: any sid the core can
	// return to a concurrent query already has its toGlobal entry.
	sh.toGlobal = append(sh.toGlobal, g)
	got, err := ix.Insert(s)
	if err == nil && uint32(got) != local {
		err = fmt.Errorf("engine: shard %d insert landed on local sid %d, expected %d", si, got, local)
	}
	if err != nil {
		sh.toGlobal = sh.toGlobal[:local]
		return err
	}
	sh.noteInsert(local, s)
	e.trackInsert(ix, g, local)
	// The sid space grows only once the insert landed, so a failed one
	// leaves no sid behind.
	e.gmu.Lock()
	for uint32(len(e.locals)) <= g {
		e.locals = append(e.locals, localUnassigned)
	}
	e.locals[g] = local
	e.gmu.Unlock()
	return nil
}

// Delete tombstones global sid g in its shard. The sid is never reused.
func (e *Engine) Delete(g uint32) error {
	e.gmu.RLock()
	var local uint32 = localUnassigned
	if int(g) < len(e.locals) {
		local = e.locals[g]
	}
	e.gmu.RUnlock()
	if local == localUnassigned {
		return fmt.Errorf("engine: sid %d out of range", g)
	}
	si := e.ShardOf(g)
	sh := e.shards[si]
	sh.mu.Lock()
	err := e.loadView().cores[si].Delete(storage.SID(local))
	if err == nil {
		sh.noteDelete(local)
		e.trackDelete(g)
	}
	sh.mu.Unlock()
	return err
}

// Len returns the number of live sets across all shards.
func (e *Engine) Len() int {
	n := 0
	for _, ix := range e.loadView().cores {
		n += ix.Len()
	}
	return n
}

// ShardLens returns each shard's live set count, indexed by shard.
func (e *Engine) ShardLens() []int {
	v := e.loadView()
	out := make([]int, len(v.cores))
	for si, ix := range v.cores {
		out[si] = ix.Len()
	}
	return out
}

// NumAllocated returns the global sid space: live sets, tombstones, and
// reservation holes. Global sids are dense in [0, NumAllocated).
func (e *Engine) NumAllocated() int {
	e.gmu.RLock()
	defer e.gmu.RUnlock()
	return len(e.locals)
}

// Plan returns the optimizer's plan (identical in every shard).
func (e *Engine) Plan() optimize.Plan { return e.loadView().cores[0].Plan() }

// Distribution returns the global similarity distribution the current
// plan generation was tuned to (nil for loaded engines, as in core).
func (e *Engine) Distribution() *simdist.Histogram { return e.loadView().hist }

// FilterIndexes reports the built structures (identical plan in every
// shard; per-shard contents differ only in membership).
func (e *Engine) FilterIndexes() []optimize.FI { return e.loadView().cores[0].FilterIndexes() }

// Embedder exposes the min-hash permutations queries are signed with
// (identical in every shard and every plan generation — retunes never
// change the embedding).
func (e *Engine) Embedder() *minhash.Perms { return e.loadView().cores[0].Embedder() }

// IndexPages sums filter-index bucket pages across shards.
func (e *Engine) IndexPages() int {
	n := 0
	for _, ix := range e.loadView().cores {
		n += ix.IndexPages()
	}
	return n
}

// EstimateAnswerSize predicts the expected result count of a range query
// from the global distribution and the global collection size — the
// Section 5 identity, shard-count invariant.
func (e *Engine) EstimateAnswerSize(lo, hi float64) (float64, error) {
	v := e.loadView()
	if v.hist == nil {
		return 0, fmt.Errorf("engine: the index has no similarity distribution (loaded, or built with a plan override)")
	}
	if v.hist.Total() == 0 {
		return 0, nil
	}
	n := float64(e.Len())
	if n == 0 {
		return 0, nil
	}
	pairsMass := v.hist.Mass(lo, hi) / v.hist.Total() * (n * (n - 1) / 2)
	return 2 * pairsMass / n, nil
}

// SetsBySID returns the collection indexed by global sid: slot g holds
// sid g's set, with tombstoned and never-applied sids left nil.
func (e *Engine) SetsBySID() []*set.Set {
	v := e.loadView()
	bySID := make([][]*set.Set, len(e.shards))
	tgs := make([][]uint32, len(e.shards))
	for si, sh := range e.shards {
		bySID[si] = v.cores[si].SetsBySID()
		tgs[si] = sh.mapping()
	}
	// Size the result only after every mapping capture: applyLocked grows
	// the sid space before it releases the shard mutex that mapping waits
	// on, so every sid captured above is below NumAllocated by now.
	out := make([]*set.Set, e.NumAllocated())
	for si, tg := range tgs {
		for local, s := range bySID[si] {
			if s != nil {
				out[tg[local]] = s
			}
		}
	}
	return out
}

// Sets returns the live collection in ascending global-sid order (dense;
// positions equal global sids only when the engine has no deletions or
// holes — the callers that need alignment check NumAllocated == Len).
func (e *Engine) Sets() []set.Set {
	bySID := e.SetsBySID()
	out := make([]set.Set, 0, len(bySID))
	for _, s := range bySID {
		if s != nil {
			out = append(out, *s)
		}
	}
	return out
}

// mapping captures the shard's local→global table header. Entries are
// append-only and immutable, so the captured slice stays valid after the
// lock is released; callers must capture it AFTER the core read they are
// translating (any sid a core query can return was mapped before its
// insert completed).
func (sh *shard) mapping() []uint32 {
	sh.mu.Lock()
	tg := sh.toGlobal
	sh.mu.Unlock()
	return tg
}
