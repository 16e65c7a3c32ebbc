package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	ssr "repro"
	"repro/internal/set"
	"repro/internal/workload"
)

// options are the knobs of one invocation. Flags set the seed, the length of
// the measured phase, the mode and the profiles; the rest is the benchmark
// and stays at its defaults, which only the smoke test overrides.
type options struct {
	seed       int64
	seconds    float64
	trace      bool
	n          int    // collection size
	budget     int    // hash-table budget of the index
	traced     int    // sample queries re-executed stage by stage in a traced run
	outDir     string // trace files and durable state
	cpuProfile string
	memProfile string
}

func defaults() options {
	return options{seed: 1, seconds: 6, n: 20000, budget: 300, traced: 100, outDir: "benchmark/out"}
}

// Seeds derived from the run seed, one per purpose, so no two streams of a
// run are the same draws.
const (
	sampleSeed = iota + 1
	streamSeed
	writerSeed
	seedPurposes
)

func (o options) derive(purpose int64) int64 { return o.seed*seedPurposes + purpose }

const (
	// streamLen is long enough for the measured stream not to wrap within
	// a run even at cache-hit rates; wrapping is harmless but would repeat
	// the same draws.
	streamLen = 1 << 16
	keepEvery = 20 // answers of every 20th query (5 %) are kept and re-scored
)

// run is the state of one workload run.
type run struct {
	sp  spec
	opt options
	res *result
	tr  *tracer

	sets      []set.Set
	ix        *ssr.Index
	dir       string // durability directory of the current index
	crashDir  string // copy of dir taken before the clean close (traced runs)
	genTime   time.Duration
	buildTime time.Duration
	// sampleMisses are the sample pass's queries that missed the result
	// cache: the lookups the plan cache had seen when measuring began.
	sampleMisses []workload.Query
}

// fail records one failed operation: an error from the index or an answer
// that did not survive a check.
func (r *run) fail(format string, args ...any) {
	r.res.failed++
	r.res.note("FAILED: "+format, args...)
}

// runWorkload runs one workload end to end and returns its result. An error
// means the benchmark itself could not run; a wrong answer is not an error
// but a failed operation in the result.
func runWorkload(sp spec, opt options) (res *result, err error) {
	r := &run{sp: sp, opt: opt, res: newResult(sp.name, opt.trace)}
	if opt.trace {
		r.tr = newTracer()
	}
	defer func() { err = errors.Join(err, r.discard()) }()
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, repeated so that setup_s is a median and not one draw. A
	// traced run reports no setup_s and sets up once.
	setups := make([]time.Duration, 3)
	if opt.trace {
		setups = setups[:1]
	}
	for k := range setups {
		if err := r.discard(); err != nil {
			return nil, err
		}
		d, err := r.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[k] = d
	}
	r.res.set("setup_s", medianSeconds(setups))
	r.res.note("set-ups took %v", setups)
	r.res.set("workload.generate_s", r.genTime.Seconds())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.set("heap_mb", float64(ms.HeapAlloc)/(1<<20))
	r.res.note("n=%d seed=%d GOMAXPROCS=%d nproc=%d %s", opt.n, opt.seed,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	// The fixed sample pass: deterministic per seed, checked in full
	// against a brute-force oracle, and at the same time the warm-up.
	sample, err := sp.stream(opt.n, sp.sample, opt.seed, opt.derive(sampleSeed))
	if err != nil {
		return nil, err
	}
	r.samplePass(sample)

	// The measured phase.
	stream, err := sp.stream(opt.n, streamLen, opt.seed, opt.derive(streamSeed))
	if err != nil {
		return nil, err
	}
	r.res.inputs = fmt.Sprintf("collection %016x sample %016x measured %016x", digestSets(r.sets), digestQueries(sample), digestQueries(stream))
	w := newWriter(r.ix, r.sets, opt.derive(writerSeed))
	log, err := r.measure(stream, w)
	if err != nil {
		return nil, err
	}
	r.res.attempted += len(w.added) + w.removed + w.failed
	if r.res.failed += w.failed; w.failed > 0 {
		r.res.note("FAILED: %d mutations returned an error", w.failed)
	}

	// Checks that need the index as the measured phase left it.
	if sp.planner {
		r.ix.DisablePlanner()
		r.checkAgainstPlannerOff(log)
	}
	r.checkKept(log)
	if opt.trace {
		if err := r.traceQueries(sample[:min(opt.traced, len(sample))], log); err != nil {
			return nil, err
		}
	}
	r.checkLedger(w, r.ix.Sets())
	if sp.durable {
		if err := r.reopen(w); err != nil {
			return nil, err
		}
	}
	if opt.trace {
		if err := r.traceFixtures(w); err != nil {
			return nil, err
		}
		if err := r.tr.write(opt.outDir, sp.name); err != nil {
			return nil, err
		}
	}
	if opt.memProfile != "" {
		if err := writeHeapProfile(opt.memProfile); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// setUp generates the inputs and builds the index the way a user of the
// package would, and returns how long that took.
func (r *run) setUp() (time.Duration, error) {
	start := time.Now()
	sets, err := generate(r.opt.n)
	if err != nil {
		return 0, err
	}
	r.genTime = time.Since(start)
	coll := newCollection(sets)
	buildStart := time.Now()
	bopt := buildOptions(r.sp.shards, r.opt.budget)
	if r.sp.durable {
		if r.dir, err = os.MkdirTemp(r.opt.outDir, "data-"+r.sp.name+"-"); err != nil {
			return 0, err
		}
		r.ix, err = ssr.CreateDurable(r.dir, coll, bopt, durableOptions())
	} else {
		r.ix, err = ssr.Build(coll, bopt)
	}
	if err != nil {
		return 0, err
	}
	if r.sp.planner {
		r.ix.EnablePlanner(plannerPolicy)
	}
	r.buildTime = time.Since(buildStart)
	r.sets = sets
	return time.Since(start), nil
}

func durableOptions() ssr.DurableOptions {
	return ssr.DurableOptions{Sync: ssr.SyncAlways, PreallocBytes: 1 << 20}
}

// discard closes the current index and removes what it left on disk.
func (r *run) discard() error {
	var err error
	if r.ix != nil {
		err = r.ix.Close()
	}
	for _, dir := range []string{r.dir, r.crashDir} {
		if dir != "" {
			err = errors.Join(err, os.RemoveAll(dir))
		}
	}
	r.ix, r.dir, r.crashDir, r.sets = nil, "", "", nil
	return err
}

// jaccard is |a ∩ b| / |a ∪ b| over sorted element slices by a plain merge,
// two empty sets being identical. It is the benchmark's own, so that the
// oracle and the re-scoring of answers do not lean on the code they check.
func jaccard(a, b []set.Elem) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// truthSizes counts, by brute force over the generated sets, how many sets
// lie in each query's range.
func truthSizes(sets []set.Set, queries []workload.Query) []int {
	sizes := make([]int, len(queries))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				q := queries[i]
				for _, s := range sets {
					if sim := jaccard(sets[q.SID].Elems(), s.Elems()); sim >= q.Lo && sim <= q.Hi {
						sizes[i]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return sizes
}

// checkAnswer re-scores every match with exact Jaccard: it must lie in the
// range, carry the similarity reported, and follow the processor's total
// order (similarity descending, sid ascending), which also rules out a sid
// returned twice.
func checkAnswer(sets []set.Set, q workload.Query, matches []ssr.Match) error {
	for i, m := range matches {
		if m.SID < 0 || m.SID >= len(sets) {
			return fmt.Errorf("sid %d outside the collection", m.SID)
		}
		sim := jaccard(sets[q.SID].Elems(), sets[m.SID].Elems())
		if sim != m.Similarity || sim < q.Lo || sim > q.Hi {
			return fmt.Errorf("sid %d reported at %v, exact %v, range [%v, %v]", m.SID, m.Similarity, sim, q.Lo, q.Hi)
		}
		if i > 0 {
			p := matches[i-1]
			if p.Similarity < m.Similarity || (p.Similarity == m.Similarity && p.SID >= m.SID) {
				return fmt.Errorf("match %d out of order", i)
			}
		}
	}
	return nil
}

// samplePass runs the fixed sample of queries once, untimed for the result:
// every answer is checked in full and compared with the oracle, which gives
// recall, the simulated I/O clock and the answer checksum exactly per seed.
func (r *run) samplePass(sample []workload.Query) {
	// A repeated query (planner_zipf draws with repeats) is scored against
	// the oracle once: the hottest of a Zipf pool would otherwise carry a
	// sixth of the mean.
	first := make(map[workload.Query]bool, len(sample))
	var distinct []workload.Query
	for _, q := range sample {
		if !first[q] {
			first[q] = true
			distinct = append(distinct, q)
		}
	}
	sizes := truthSizes(r.sets, distinct)
	truth := make(map[workload.Query]int, len(distinct))
	for i, q := range distinct {
		truth[q] = sizes[i]
	}
	promised := r.ix.Plan().ExpectedWorstRecall
	sum := fnv.New64a()
	var simIO time.Duration
	var recallSum float64
	var recallN, candidates, results int
	for i, q := range sample {
		matches, st, err := r.ix.QuerySID(q.SID, q.Lo, q.Hi)
		r.res.attempted++
		if err != nil {
			r.fail("sample query %d: %v", i, err)
			continue
		}
		if err := checkAnswer(r.sets, q, matches); err != nil {
			r.fail("sample query %d: %v", i, err)
			continue
		}
		// Every match is a true one, so the answer's size is its overlap
		// with the truth; more matches than truths cannot be right.
		if len(matches) > truth[q] {
			r.fail("sample query %d: %d matches, %d sets in range", i, len(matches), truth[q])
			continue
		}
		if first[q] && truth[q] > 0 {
			recallSum += float64(len(matches)) / float64(truth[q])
			recallN++
		}
		first[q] = false
		if st.CacheMisses > 0 {
			r.sampleMisses = append(r.sampleMisses, q)
		}
		simIO += st.SimulatedIOTime
		candidates += st.Candidates
		results += len(matches)
		for _, m := range matches {
			fmt.Fprintf(sum, "%d:%d:%x;", i, m.SID, math.Float64bits(m.Similarity))
		}
	}
	n := float64(len(sample))
	r.res.set("sim_io_ms_per_query", float64(simIO.Nanoseconds())/1e6/n)
	if recallN > 0 {
		r.res.set("recall", recallSum/float64(recallN))
	}
	r.res.set("optimize.expected_recall", promised)
	r.res.set("filter.candidates_per_query", float64(candidates)/n)
	if candidates > 0 {
		r.res.set("filter.precision", float64(results)/float64(candidates))
	}
	r.res.note("sample pass: %d queries, %d distinct, %d with a non-empty truth, plan promises recall >= %.4f, %.0f candidates -> %.0f results per query",
		len(sample), len(distinct), recallN, promised, float64(candidates)/n, float64(results)/n)
	r.res.answers = fmt.Sprintf("%016x", sum.Sum64())
}

// readLog is what the reading client saw during the measured phase.
type readLog struct {
	lat     []time.Duration
	hitLat  []time.Duration // queries the result cache answered
	missLat []time.Duration // queries that missed it
	misses  []workload.Query
	// missMuts is how many mutations the index had taken when each miss
	// happened: the planner's caches are keyed on that count.
	missMuts []uint64
	chosen   map[string]int
	kept     []keptAnswer
	elapsed  time.Duration
}

type keptAnswer struct {
	q       workload.Query
	matches []ssr.Match
}

// measure runs the closed-loop clients for the configured time: one reader,
// and beside it the writer when the workload has a concurrent one.
func (r *run) measure(stream []workload.Query, w *writer) (*readLog, error) {
	log := &readLog{chosen: make(map[string]int)}
	if r.opt.cpuProfile != "" {
		f, err := os.Create(r.opt.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(r.opt.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	if r.sp.concurrentWriter {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.op()
			}
		}()
	}
	for i := 0; time.Now().Before(deadline); i++ {
		r.query(stream[i%len(stream)], i, log, w)
	}
	log.elapsed = time.Since(start)
	wg.Wait()

	sorted := sortedCopy(log.lat)
	r.res.set("query_p50_us", micros(percentile(sorted, 0.5)))
	r.res.set("query_per_s", float64(len(sorted))/log.elapsed.Seconds())
	r.res.set("ssr.query_p99_us", micros(percentile(sorted, 0.99)))
	r.res.note("measured phase: %.2f s, %d queries (%d beyond p99)", log.elapsed.Seconds(), len(sorted), len(sorted)-int(math.Ceil(0.99*float64(len(sorted)))))
	if r.sp.concurrentWriter {
		r.reportWrites(w, log.elapsed)
	}
	if r.sp.planner {
		r.reportPlanner(log)
	}
	return log, nil
}

// query issues the i-th query of the measured phase and logs what the
// client saw.
func (r *run) query(q workload.Query, i int, log *readLog, w *writer) {
	t := time.Now()
	matches, st, err := r.ix.QuerySID(q.SID, q.Lo, q.Hi)
	d := time.Since(t)
	r.res.attempted++
	if err != nil {
		r.fail("query %d: %v", i, err)
		return
	}
	log.lat = append(log.lat, d)
	switch {
	case st.CacheHits > 0:
		log.hitLat = append(log.hitLat, d)
	case st.CacheMisses > 0:
		log.missLat = append(log.missLat, d)
		log.misses = append(log.misses, q)
		log.missMuts = append(log.missMuts, uint64(len(w.added)))
	}
	if st.PlanChosen != "" {
		log.chosen[st.PlanChosen]++
	}
	if i%keepEvery == 0 {
		log.kept = append(log.kept, keptAnswer{q: q, matches: matches})
	}
	if r.sp.addEvery > 0 && (i+1)%r.sp.addEvery == 0 {
		w.add(w.nearCopy())
	}
}

// reportWrites turns the concurrent writer's log into the write metrics.
// elapsed is the wall time the writes were spread over.
func (r *run) reportWrites(w *writer, elapsed time.Duration) {
	sorted := sortedCopy(w.lat)
	r.res.set("ssr.write_p50_us", micros(percentile(sorted, 0.5)))
	r.res.set("ssr.write_per_s", float64(len(sorted))/elapsed.Seconds())
	r.res.set("ssr.write_p99_us", micros(percentile(sorted, 0.99)))
	r.res.note("writes: %d mutations in %.2f s (%d beyond p99), %d adds, %d removes", len(sorted), elapsed.Seconds(),
		len(sorted)-int(math.Ceil(0.99*float64(len(sorted)))), len(w.added), w.removed)
}

// checkKept re-scores the answers kept from the measured phase against the
// sets as the index holds them now (removed sets keep their content there).
func (r *run) checkKept(log *readLog) {
	sets := r.ix.Sets()
	for i, k := range log.kept {
		if err := checkAnswer(sets, k.q, k.matches); err != nil {
			r.fail("kept answer %d: %v", i, err)
		}
	}
	r.res.note("re-scored %d kept answers", len(log.kept))
}

// checkAgainstPlannerOff re-runs the kept queries with the planner off: a
// planned or cached answer must be the default pipeline's answer. Sets added
// since an answer was kept may only add matches, so both sides are compared
// over the original collection.
func (r *run) checkAgainstPlannerOff(log *readLog) {
	original := func(ms []ssr.Match) []ssr.Match {
		var out []ssr.Match
		for _, m := range ms {
			if m.SID < r.opt.n {
				out = append(out, m)
			}
		}
		return out
	}
	for i, k := range log.kept {
		base, _, err := r.ix.QuerySID(k.q.SID, k.q.Lo, k.q.Hi)
		if err != nil {
			r.fail("planner-off query %d: %v", i, err)
			continue
		}
		a, b := original(k.matches), original(base)
		same := len(a) == len(b)
		for j := 0; same && j < len(a); j++ {
			same = a[j] == b[j]
		}
		if !same {
			r.fail("kept answer %d differs from the planner-off answer (%d vs %d matches)", i, len(a), len(b))
		}
	}
}

// checkLedger holds the index to the writer's ledger: Len counts every
// acknowledged insert and no acknowledged delete, and Sets holds exactly the
// inserted elements at the acknowledged sids.
func (r *run) checkLedger(w *writer, sets []set.Set) {
	if want := r.opt.n + len(w.added) - w.removed; r.ix.Len() != want {
		r.fail("Len() = %d, ledger says %d", r.ix.Len(), want)
	}
	for i, sid := range w.added {
		if sid >= len(sets) {
			r.fail("acknowledged insert %d missing from Sets()", sid)
			continue
		}
		// An insert's elements are distinct by construction, so its set
		// has one element per name.
		if i >= w.removed && sets[sid].Len() != w.sizes[i] {
			r.fail("sid %d holds %d elements, %d were inserted", sid, sets[sid].Len(), w.sizes[i])
		}
	}
}

// reopen closes the durable index, opens it again from disk, and checks the
// reopened state against the ledger and against the sets held before.
func (r *run) reopen(w *writer) error {
	before := r.ix.Sets()
	if r.opt.trace {
		if err := r.traceRecovery(); err != nil {
			return err
		}
	}
	if err := r.ix.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	start := time.Now()
	ix, err := ssr.OpenDurable(r.dir, durableOptions())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.ix = ix
	_, _, err = ix.QuerySID(0, 0.5, 1)
	r.res.attempted++
	if err != nil {
		r.fail("first query after reopen: %v", err)
	}
	r.res.set("recovery.reopen_s", time.Since(start).Seconds())
	after := ix.Sets()
	r.checkLedger(w, after)
	removed := make(map[int]bool, w.removed)
	for _, sid := range w.added[:w.removed] {
		removed[sid] = true
	}
	for sid, s := range before {
		switch {
		case sid >= len(after):
			r.fail("sid %d lost by reopen", sid)
		case removed[sid] && !after[sid].IsEmpty():
			r.fail("removed sid %d came back after reopen", sid)
		case !removed[sid] && !after[sid].Equal(s):
			r.fail("sid %d changed across reopen", sid)
		}
	}
	r.res.note("reopened: %d live sets, %d acknowledged inserts and %d deletes checked", ix.Len(), len(w.added), w.removed)
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
