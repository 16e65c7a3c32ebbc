package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	ssr "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tuner"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The traced run takes every per-layer number from outside the program: it
// calls each layer's exported functions itself and records a span around
// each call. No file outside this directory is instrumented; in-program
// stage timers are a later change. A traced query is therefore re-executed
// stage by stage after the public call, and the re-execution must reproduce
// the public answer exactly or the run fails.

// span is one timed call. Parent is the span that logically contains it
// (-1 for a root); spans of one query share Query (-1 outside queries).
// Re-executed stages do not overlap their parent in time, so a layer's self
// time is its span's duration minus its children's durations.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   int    `json:"query"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans begin and end on
// the run's own goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, query int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Query: query, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.spans[id].EndNs = now
	return time.Duration(now - t.spans[id].StartNs)
}

func (t *tracer) write(dir, workload string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// verifySplitAt is the candidate count from which verification fans out
// across workers. The traced core call is handed it as MinParallelVerify
// (it is core's default today), so that call and its stage-by-stage
// re-execution split a candidate list at the same point whatever core's
// default becomes.
const verifySplitAt = 48

// inChunks splits [0, n) across workers in equal contiguous chunks, as
// core's verification does. Were core to split differently, the re-executed
// stages would stop adding up to the core call and trace.unattributed_share
// would show it.
func inChunks(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n < verifySplitAt {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// stages is the time one shard spent on one query, stage by stage.
type stages struct {
	query, candidates, verify, fetch, sort time.Duration
}

// traceQueries re-executes the given queries through every layer of the
// read path: the public call, the engine call under it, each shard's core
// call, and that call's stages through the layers' own exported functions.
func (r *run) traceQueries(queries []workload.Query, log *readLog) error {
	eng := r.ix.Internal()
	shards := eng.NumShards()
	emb := eng.Embedder()
	sig := make(minhash.Signature, emb.K())
	sets := r.ix.Sets()
	shares := core.SplitPool(runtime.GOMAXPROCS(0), shards)

	// The same queries untraced: the difference is the tracing overhead.
	plain := make([]time.Duration, len(queries))
	for i, q := range queries {
		start := time.Now()
		if _, _, err := r.ix.QuerySID(q.SID, q.Lo, q.Hi); err != nil {
			return err
		}
		plain[i] = time.Since(start)
	}

	n := len(queries)
	var root, facade, scatter, gather, sign, coreQuery, probeMerge, perTable, fetch, scoring, sorting []time.Duration
	var unattributed []float64
	var indexRand, fetchPages, pairs, screened, screenedOf, queried, pruned int64
	var scoringTotal time.Duration
	for qi, q := range queries {
		qs := sets[q.SID]
		rootID := r.tr.begin("ssr.query", -1, qi)
		pub, st, err := r.ix.QuerySID(q.SID, q.Lo, q.Hi)
		rootD := r.tr.end(rootID)
		if err != nil {
			return err
		}
		engID := r.tr.begin("engine.query", rootID, qi)
		_, est, err := eng.QueryWithOptions(qs, q.Lo, q.Hi, core.QueryOptions{})
		engD := r.tr.end(engID)
		if err != nil {
			return err
		}
		signID := r.tr.begin("minhash.sign", engID, qi)
		emb.SignInto(qs, sig)
		signD := r.tr.end(signID)

		per := make([]stages, shards)
		var answer []core.Match
		slowest := 0
		for si := 0; si < shards; si++ {
			c := eng.ShardCore(si)
			store := c.Store()
			workers := shares[si]

			id := r.tr.begin("core.query", engID, qi)
			want, _, err := c.QueryPresigned(qs, sig, q.Lo, q.Hi, core.QueryOptions{Workers: workers, MinParallelVerify: verifySplitAt})
			per[si].query = r.tr.end(id)
			if err != nil {
				return err
			}
			if per[si].query > per[slowest].query {
				slowest = si
			}
			answer = append(answer, want...)

			var cst core.QueryStats
			candID := r.tr.begin("filter.candidates", id, qi)
			cands, err := c.Candidates(qs, q.Lo, q.Hi, &cst)
			per[si].candidates = r.tr.end(candID)
			if err != nil {
				return err
			}
			indexRand += cst.IndexIO.Rand()

			// Verification as the core runs it: fetch a candidate, score it
			// while it is hot. The fetches alone, run again under that span,
			// leave the Jaccard computation as its self time.
			chunks := make([][]core.Match, workers)
			ios := make([]storage.Counter, workers)
			errs := make([]error, workers)
			verifyID := r.tr.begin("core.verify", id, qi)
			inChunks(len(cands), workers, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					s, err := store.Fetch(cands[i], &ios[w])
					if err != nil {
						errs[w] = err
						return
					}
					if sim := qs.Jaccard(s); sim >= q.Lo && sim <= q.Hi {
						chunks[w] = append(chunks[w], core.Match{SID: cands[i], Similarity: sim})
					}
				}
			})
			var got []core.Match
			for _, ch := range chunks {
				got = append(got, ch...)
			}
			per[si].verify = r.tr.end(verifyID)
			if err := errors.Join(errs...); err != nil {
				return err
			}
			for _, io := range ios {
				fetchPages += io.Rand() + io.Seq()
			}
			fetchID := r.tr.begin("storage.fetch", verifyID, qi)
			inChunks(len(cands), workers, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					if _, err := store.Fetch(cands[i], nil); err != nil {
						errs[w] = err
						return
					}
				}
			})
			per[si].fetch = min(r.tr.end(fetchID), per[si].verify)
			if err := errors.Join(errs...); err != nil {
				return err
			}
			pairs += int64(len(cands))

			sortID := r.tr.begin("core.sort", id, qi)
			core.SortMatches(got)
			per[si].sort = r.tr.end(sortID)

			if !slices.Equal(got, want) {
				r.fail("traced query %d shard %d: stage-by-stage re-execution gave %d matches, the core call %d", qi, si, len(got), len(want))
			}

			// Side pass: how much of the candidate list signature
			// screening would have spared the fetch.
			_, sst, err := c.QueryWithOptions(qs, q.Lo, q.Hi, core.QueryOptions{Screen: true, Workers: workers})
			if err != nil {
				return err
			}
			screened += int64(sst.Screened)
			screenedOf += int64(sst.Candidates)
		}
		if !sameAnswer(pub, answer, shards == 1) {
			r.fail("traced query %d: the shards' answers do not add up to the public answer (%d vs %d matches)", qi, len(answer), len(pub))
		}

		var sum stages
		for _, p := range per {
			sum.candidates += max(p.candidates-signD, 0)
			sum.fetch += p.fetch
			sum.verify += p.verify
			sum.sort += p.sort
		}
		slow := per[slowest]
		root = append(root, rootD)
		facade = append(facade, max(rootD-engD, 0))
		scatter = append(scatter, max(engD-signD-slow.query, 0))
		gather = append(gather, est.Gather)
		sign = append(sign, signD)
		coreQuery = append(coreQuery, slow.query)
		probeMerge = append(probeMerge, sum.candidates)
		if tables := eng.ShardCore(0).ProbeTables(q.Lo, q.Hi) * shards; tables > 0 {
			perTable = append(perTable, sum.candidates/time.Duration(tables))
		}
		fetch = append(fetch, sum.fetch)
		scoring = append(scoring, sum.verify-sum.fetch)
		scoringTotal += sum.verify - sum.fetch
		sorting = append(sorting, sum.sort)
		// The engine signs once and hands every shard the signature, so
		// root = facade + scatter/gather + sign + the slowest shard's core
		// call by construction; what can go unattributed is that call
		// against its own stages.
		gap := slow.query - (max(slow.candidates-signD, 0) + slow.verify + slow.sort)
		if gap < 0 {
			gap = -gap
		}
		unattributed = append(unattributed, float64(gap)/float64(rootD))
		queried += int64(st.ShardsQueried)
		pruned += int64(st.ShardsPruned)
	}

	res := r.res
	res.set("minhash.sign_us", medianMicros(sign))
	res.set("filter.probe_merge_us", medianMicros(probeMerge))
	res.set("filter.probe_us_per_table", medianMicros(perTable))
	res.set("filter.index_rand_pages_per_query", float64(indexRand)/float64(n))
	res.set("storage.fetch_us", medianMicros(fetch))
	res.set("storage.fetch_pages_per_query", float64(fetchPages)/float64(n))
	res.set("storage.pages_per_set", eng.ShardCore(0).Store().AvgPagesPerSet())
	res.set("set.jaccard_us", medianMicros(scoring))
	if pairs > 0 {
		res.set("set.jaccard_ns_per_pair", float64(scoringTotal.Nanoseconds())/float64(pairs))
	}
	res.set("core.sort_us", medianMicros(sorting))
	res.set("core.query_us", medianMicros(coreQuery))
	if screenedOf > 0 {
		res.set("core.screened_fraction", float64(screened)/float64(screenedOf))
	}
	res.set("engine.scatter_gather_us", medianMicros(scatter))
	res.set("engine.gather_us", medianMicros(gather))
	res.set("engine.shards_queried", float64(queried)/float64(n))
	res.set("engine.shards_pruned", float64(pruned)/float64(n))
	res.set("ssr.facade_us", medianMicros(facade))
	sort.Float64s(unattributed)
	res.set("trace.unattributed_share", unattributed[len(unattributed)/2])
	res.set("trace.overhead_ratio", medianMicros(root)/medianMicros(plain))
	res.note("traced %d queries: public call p50 %.1f us traced, %.1f us untraced", n, medianMicros(root), medianMicros(plain))

	if r.sp.planner && len(log.misses) > 0 {
		// What the queries that missed the result cache cost with the
		// planner off: the baseline a miss has to be held against.
		misses := log.misses[:min(len(log.misses), r.opt.traced)]
		base := make([]time.Duration, len(misses))
		decide := make([]time.Duration, len(misses))
		for i, q := range misses {
			start := time.Now()
			if _, _, err := r.ix.QuerySID(q.SID, q.Lo, q.Hi); err != nil {
				return err
			}
			base[i] = time.Since(start)
			id := r.tr.begin("plan.decide", -1, -1)
			decideLike(eng, q)
			decide[i] = r.tr.end(id)
		}
		res.set("plan.miss_over_baseline", medianMicros(log.missLat)/medianMicros(base))
		res.set("plan.decide_us", medianMicros(decide))
		res.note("planner-off p50 of %d queries that missed the result cache: %.1f us", len(misses), medianMicros(base))
	}
	return nil
}

// sameAnswer compares the public answer with the shards' own answers. With
// one shard sids are comparable and the lists must be equal; with several,
// a shard's sids are local, so the similarities in processor order must be.
func sameAnswer(pub []ssr.Match, shards []core.Match, sids bool) bool {
	if len(pub) != len(shards) {
		return false
	}
	core.SortMatches(shards)
	for i, m := range pub {
		if m.Similarity != shards[i].Similarity || (sids && m.SID != int(shards[i].SID)) {
			return false
		}
	}
	return true
}

// decideLike prices the plans for one query from the index's exported cost
// inputs, as the engine's planner does on a plan-cache miss.
func decideLike(eng *engine.Engine, q workload.Query) plan.Decision {
	c0 := eng.ShardCore(0)
	live, pages, pps := c0.ScanCostInputs()
	frac, ok := c0.CaptureFraction(eng.Distribution(), q.Lo, q.Hi)
	return plan.Decide(plan.Inputs{
		Predicted:      frac * float64(live-1),
		NoEstimate:     !ok,
		ProbeTables:    c0.ProbeTables(q.Lo, q.Hi),
		Shards:         []plan.ShardInput{{Live: live, ScanPages: pages, PagesPerSet: pps}},
		Model:          storage.DefaultCostModel(),
		Width:          q.Hi - q.Lo,
		Eps95:          c0.Eps95(),
		SigBytesPerSet: c0.SignatureBytesPerSet(),
		PageBytes:      c0.BuildOptions().PageSize,
	})
}

// reportPlanner turns the reader's view of the planner into the plan.*
// metrics. The plan cache reports nothing through Stats, so its hit ratio
// comes from a cache of the same kind, built from the same plannerPolicy and
// fed the same lookups: the planner consults it exactly when the result
// cache misses, in the sample pass (which warms both) as in the measured
// phase (which is counted).
func (r *run) reportPlanner(log *readLog) {
	res := r.res
	if n := len(log.hitLat) + len(log.missLat); n > 0 {
		res.set("plan.result_hit_ratio", float64(len(log.hitLat))/float64(n))
	}
	res.set("plan.hit_us", medianMicros(log.hitLat))
	res.set("plan.miss_us", medianMicros(log.missLat))
	res.set("plan.chosen.fi-probe", float64(log.chosen["fi-probe"]))
	res.set("plan.chosen.direct-scan", float64(log.chosen["direct-scan"]))
	res.set("plan.chosen.cached", float64(log.chosen["cached"]))
	shadow := plan.NewPlanCache(plannerPolicy.PlanCacheEntries)
	lookup := func(q workload.Query, muts uint64) bool {
		key := plan.MakePlanKey(q.Lo, q.Hi, 0)
		tok := plan.Token{Muts: []uint64{muts}}
		_, hit := shadow.Get(key, tok, uint64(plannerPolicy.MutationTolerance))
		if !hit {
			shadow.Put(key, tok, plan.Decision{})
		}
		return hit
	}
	for _, q := range r.sampleMisses {
		lookup(q, 0) // no mutation precedes the sample pass
	}
	hits := 0
	for i, q := range log.misses {
		if lookup(q, log.missMuts[i]) {
			hits++
		}
	}
	if len(log.misses) > 0 {
		res.set("plan.plan_hit_ratio", float64(hits)/float64(len(log.misses)))
	}
	res.note("planner: %d result-cache hits, %d misses, plans chosen %v", len(log.hitLat), len(log.missLat), log.chosen)
}

// traceRecovery measures a forced checkpoint and keeps a copy of the
// durability directory as a crash would leave it: with the measured
// phase's log tails not yet folded into a checkpoint.
func (r *run) traceRecovery() error {
	crash, err := os.MkdirTemp(r.opt.outDir, "crash-"+r.sp.name+"-")
	if err != nil {
		return err
	}
	r.crashDir = crash
	if err := copyTree(crash, r.dir); err != nil {
		return err
	}
	id := r.tr.begin("recovery.checkpoint", -1, -1)
	err = r.ix.Checkpoint()
	r.res.set("recovery.checkpoint_s", r.tr.end(id).Seconds())
	if err != nil {
		return err
	}
	// The newest checkpoint of each shard is the last in name order.
	newest := make(map[string]int64)
	err = filepath.WalkDir(r.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".snap") {
			return err
		}
		info, err := d.Info()
		if err == nil {
			newest[filepath.Dir(path)] = info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	var total int64
	for _, size := range newest {
		total += size
	}
	r.res.set("recovery.checkpoint_bytes", float64(total))
	r.res.set("recovery.bytes_per_set", float64(total)/float64(r.ix.Len()))
	return nil
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// traceFixtures takes the numbers that need no query: the set-up stages
// re-executed one by one, the write lane's parts on fixtures of their own,
// and recovery from the crash copy.
func (r *run) traceFixtures(w *writer) error {
	res := r.res
	eng := r.ix.Internal()
	emb := eng.Embedder()
	bopt := buildOptions(r.sp.shards, r.opt.budget)
	sets := r.ix.Sets()[:r.opt.n]

	// Set-up, stage by stage, with the options ssr.Build derives.
	id := r.tr.begin("minhash.sign_collection", -1, -1)
	sigs := core.SignCollection(emb, sets, bopt.Workers)
	signD := r.tr.end(id)
	id = r.tr.begin("simdist.sample", -1, -1)
	hist, err := core.EstimateDistribution(sets, sigs, core.Options{DistSample: bopt.DistSample, DistSeed: bopt.Seed, Workers: bopt.Workers})
	sampleD := r.tr.end(id)
	if err != nil {
		return err
	}
	id = r.tr.begin("optimize.build_plan", -1, -1)
	built, err := optimize.BuildPlan(hist, optimize.Options{Budget: bopt.Budget, RecallTarget: bopt.RecallTarget, MaxFIs: bopt.MaxFilterIndices, SignatureK: emb.K()})
	planD := r.tr.end(id)
	if err != nil {
		return err
	}
	if !slices.Equal(built.Cuts, eng.Plan().Cuts) {
		r.fail("re-executed set-up planned cuts %v, the index has %v", built.Cuts, eng.Plan().Cuts)
	}
	res.set("minhash.sign_collection_s", signD.Seconds())
	res.set("simdist.sample_s", sampleD.Seconds())
	res.set("optimize.build_plan_s", planD.Seconds())
	res.set("optimize.intervals", float64(len(built.Cuts)+1))
	res.set("core.populate_s", max(r.buildTime-signD-sampleD-planD, 0).Seconds())

	// The tuner's upkeep per insert, on a tracker of its own.
	tr, err := tuner.New(tuner.Config{Rand: rand.New(rand.NewSource(r.opt.seed))})
	if err != nil {
		return err
	}
	tr.SetBaseline(hist)
	upkeep := make([]time.Duration, min(len(sigs), 1000))
	for i := range upkeep {
		start := time.Now()
		tr.OnInsert(uint32(i), sigs[i])
		upkeep[i] = time.Since(start)
	}
	res.set("tuner.on_insert_us", medianMicros(upkeep))

	if r.sp.durable {
		if err := r.traceWAL(w); err != nil {
			return err
		}
		// Recovery as after a crash: checkpoint load plus log replay.
		start := time.Now()
		crashed, err := ssr.OpenDurable(r.crashDir, durableOptions())
		if err != nil {
			return fmt.Errorf("opening the crash copy: %w", err)
		}
		_, _, err = crashed.QuerySID(0, 0.5, 1)
		res.set("recovery.replay_s", time.Since(start).Seconds())
		if err != nil {
			r.fail("first query on the crash copy: %v", err)
		}
		if crashed.Len() != r.ix.Len() {
			r.fail("crash copy recovered %d live sets, the closed index had %d", crashed.Len(), r.ix.Len())
		}
		if err := crashed.Close(); err != nil {
			return err
		}
		// The engine inserts below bypass the log, so the durable lanes
		// are closed first; the engine keeps working.
		if err := r.ix.Close(); err != nil {
			return err
		}
	}

	// The engine's insert without facade or log.
	inserts := make([]time.Duration, 200)
	rng := rand.New(rand.NewSource(r.opt.seed))
	for i := range inserts {
		s := r.sets[rng.Intn(len(r.sets))]
		start := time.Now()
		if _, err := eng.Insert(s); err != nil {
			return err
		}
		inserts[i] = time.Since(start)
	}
	res.set("engine.insert_us", medianMicros(inserts))
	return nil
}

// traceWAL appends the writer's kind of records to a scratch segment with
// syncing left to the caller, so appending and syncing are timed apart.
func (r *run) traceWAL(w *writer) (err error) {
	path := filepath.Join(r.opt.outDir, "wal-fixture-"+r.sp.name+".log")
	lw, err := wal.OpenWriter(path, 0, wal.SyncNever, 0, durableOptions().PreallocBytes)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, lw.Close(), os.Remove(path)) }()
	const records = 200
	appends := make([]time.Duration, records)
	syncs := make([]time.Duration, records)
	for i := 0; i < records; i++ {
		rec := wal.Record{Op: wal.OpInsert, SID: uint32(i), Elements: w.nearCopy()}
		start := time.Now()
		if err := lw.Append(rec); err != nil {
			return err
		}
		appends[i] = time.Since(start)
		start = time.Now()
		if err := lw.Sync(); err != nil {
			return err
		}
		syncs[i] = time.Since(start)
	}
	r.res.set("wal.append_us", medianMicros(appends))
	r.res.set("wal.fsync_us", medianMicros(syncs))
	r.res.set("wal.bytes_per_mutation", float64(lw.Size())/records)
	return nil
}
