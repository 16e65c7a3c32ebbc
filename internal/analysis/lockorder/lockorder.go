// Package lockorder defines an analyzer enforcing a documented lock
// acquisition hierarchy and release discipline statically.
//
// Why this matters here: the engine's hot-swap machinery (retune.go) and
// the sharded durability lanes hold several mutexes at once, and the only
// thing standing between them and a deadlock is the acquisition order
// documented in the engine package comment — tune mutex first, then
// durable shard lane → engine shard → sid mapping → core index, with the
// drift tracker and collection locks as leaves. The -race stress tests
// exercise one schedule per run; this analyzer checks every call path the
// compiler can see, before any schedule runs.
//
// The analyzer is configured with an ordered list of lock Levels (New).
// Each level names mutex fields ("pkgpath.Type.field") and, for
// cross-package edges the per-package type-checker cannot see into,
// receiver types ("pkgpath.Type") whose method calls are modeled as
// transiently acquiring that level. Within the analyzed package, function
// summaries propagate acquisitions through local calls to a fixpoint, so
// a helper that locks deep in a call chain still participates.
//
// It reports, in non-test code:
//
//   - an acquisition of a lower-ranked lock while a higher-ranked one is
//     held (a hierarchy inversion — the deadlock shape);
//   - a call whose summary may acquire a lower-ranked lock while a
//     higher-ranked one is held;
//   - a Lock/RLock with a return path on which the lock is neither
//     released nor covered by a deferred unlock (the leak shape — the
//     next acquirer blocks forever).
//
// Same-level acquisitions are allowed: the per-shard mutexes form one
// level acquired in ascending shard order, a discipline the analyzer
// leaves to the -race suites. Locks acquired inside loop bodies are
// assumed balanced within the pattern (the lock-all/unlock-all loops of
// the swap protocol); branch bodies are analyzed against a copy of the
// held set, so an early-return unlock does not leak into the fallthrough
// path.
//
// What only this analyzer catches: saveShardCheckpoint at the root taking
// Collection.mu before Engine.ShardSnapshot (a collection-level lock held
// across an engine-shard acquisition). gofmt, go build, go vet and go test
// with and without -race all pass with that plant in. Engine.Delete
// holding the mapping lock across the shard lock deadlocks the engine
// tests only sometimes (1 go test run of 3 and 2 -race runs of 3 timed
// out), so the tests do not catch that plant reliably either.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Level is one rank of the hierarchy. Levels earlier in Config.Levels
// must be acquired before later ones; locks within one level are
// unordered peers.
type Level struct {
	// Name labels the level in diagnostics ("engine-shard").
	Name string
	// Mutexes are "pkgpath.Type.field" paths of sync.Mutex/RWMutex
	// fields belonging to this level.
	Mutexes []string
	// Types are "pkgpath.Type" receivers whose method calls are modeled
	// as transiently acquiring this level — the cross-package edges.
	Types []string
}

// Config is the documented hierarchy the analyzer enforces.
type Config struct {
	// Levels in acquisition order: Levels[0] first.
	Levels []Level
	// Methods overrides the level a specific method call acquires, keyed
	// "pkgpath.Type.Method" and valued with a level name — for entry
	// points that start higher in the hierarchy than their receiver's
	// default level (e.g. Engine.Retune takes the tune mutex first).
	Methods map[string]string
}

// Repo returns the repository's documented hierarchy (the engine package
// comment and DESIGN.md): plan-cache mutexes strictly outside everything
// (cache lookups run with no engine or core lock held, and no other lock
// is ever taken under a cache mutex), then tune mutex → durable shard
// lane → engine shard → sid mapping → core index, with the drift tracker
// and the public collection lock as leaves.
func Repo() Config {
	return Config{
		Levels: []Level{
			{Name: "plan-cache", Mutexes: []string{
				"repro/internal/plan.lru.mu",
			}, Types: []string{
				"repro/internal/plan.ResultCache",
				"repro/internal/plan.PlanCache",
			}},
			{Name: "tune", Mutexes: []string{
				"repro/internal/engine.Engine.tmu",
				"repro.tuneRuntime.mu",
			}},
			{Name: "durable-shard", Mutexes: []string{
				"repro.durableShard.mu",
			}},
			{Name: "engine-shard", Mutexes: []string{
				"repro/internal/engine.shard.mu",
			}, Types: []string{
				"repro/internal/engine.Engine",
			}},
			{Name: "mapping", Mutexes: []string{
				"repro/internal/engine.Engine.gmu",
			}},
			{Name: "core", Mutexes: []string{
				"repro/internal/core.Index.mu",
			}, Types: []string{
				"repro/internal/core.Index",
			}},
			{Name: "tracker", Mutexes: []string{
				"repro/internal/tuner.Tracker.mu",
			}, Types: []string{
				"repro/internal/tuner.Tracker",
			}},
			{Name: "collection", Mutexes: []string{
				"repro.Collection.mu",
			}},
			// Replication leaves: the watermark tracker is bracketed
			// around engine reservations but never holds its mutex across
			// another acquisition (the allocation frontier is read before
			// locking), and the source's subscriber registry only does
			// non-blocking sends under its mutex.
			{Name: "replication", Mutexes: []string{
				"repro.replTracker.mu",
				"repro.ReplicationSource.mu",
			}},
		},
		Methods: map[string]string{
			// Retunes serialize on the tune mutex before touching any
			// shard; callers must hold nothing when entering them.
			"repro/internal/engine.Engine.Retune":      "tune",
			"repro/internal/engine.Engine.MaybeRetune": "tune",
		},
	}
}

// New builds the analyzer for one hierarchy.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc:  "enforce the documented lock acquisition hierarchy and require every Lock to be released (or defer-released) on every return path",
		Run:  func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

const unranked = -1

// checker carries one package's run.
type checker struct {
	pass *analysis.Pass
	cfg  Config
	// mutexRank maps "pkgpath.Type.field" to its level index.
	mutexRank map[string]int
	// typeRank maps "pkgpath.Type" to the level its methods acquire.
	typeRank map[string]int
	// methodRank overrides typeRank per "pkgpath.Type.Method".
	methodRank map[string]int
	// names are the level names by rank.
	names []string
	// decls maps package functions to their bodies for summaries.
	decls map[*types.Func]*ast.FuncDecl
	// summary maps a package function to the set of ranks it (or its
	// local callees) may acquire.
	summary map[*types.Func]map[int]bool
}

func run(pass *analysis.Pass, cfg Config) error {
	c := &checker{
		pass:       pass,
		cfg:        cfg,
		mutexRank:  map[string]int{},
		typeRank:   map[string]int{},
		methodRank: map[string]int{},
		summary:    map[*types.Func]map[int]bool{},
		decls:      map[*types.Func]*ast.FuncDecl{},
	}
	for rank, lvl := range cfg.Levels {
		c.names = append(c.names, lvl.Name)
		for _, m := range lvl.Mutexes {
			c.mutexRank[m] = rank
		}
		for _, t := range lvl.Types {
			c.typeRank[t] = rank
		}
	}
	for name, lvlName := range cfg.Methods {
		for rank, lvl := range cfg.Levels {
			if lvl.Name == lvlName {
				c.methodRank[name] = rank
			}
		}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
		}
	}
	c.buildSummaries()
	for fn := range c.decls {
		c.checkFunc(c.decls[fn])
	}
	return nil
}

// chain renders the hierarchy for diagnostics.
func (c *checker) chain() string { return strings.Join(c.names, " → ") }

// buildSummaries computes, to a fixpoint, the set of lock levels each
// package function may acquire — directly, through a classed external
// receiver, or through a local callee.
func (c *checker) buildSummaries() {
	for fn := range c.decls {
		c.summary[fn] = map[int]bool{}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range c.decls {
			sum := c.summary[fn]
			before := len(sum)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch acq := c.classify(call); acq.kind {
				case acqLock:
					if acq.rank != unranked {
						sum[acq.rank] = true
					}
				case acqTransient:
					sum[acq.rank] = true
				case acqLocal:
					for r := range c.summary[acq.fn] {
						sum[r] = true
					}
				}
				return true
			})
			if len(sum) != before {
				changed = true
			}
		}
	}
}

// acquisition kinds classify one call expression.
const (
	acqNone = iota
	acqLock
	acqUnlock
	acqTransient
	acqLocal
)

type acquisition struct {
	kind int
	// rank is the hierarchy level (unranked for unclassed mutexes).
	rank int
	// key identifies the lock instance syntactically ("sh.mu").
	key string
	// read marks RLock/RUnlock.
	read bool
	// fn is the local callee for acqLocal.
	fn *types.Func
	// label names the callee or lock for diagnostics.
	label string
}

// classify resolves what a call expression does to the lock state.
func (c *checker) classify(call *ast.CallExpr) acquisition {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		// Plain identifier call: local function?
		if id, ok := call.Fun.(*ast.Ident); ok {
			if fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func); ok {
				if _, local := c.decls[fn]; local {
					return acquisition{kind: acqLocal, fn: fn, label: fn.Name()}
				}
			}
		}
		return acquisition{kind: acqNone}
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		if key, rank, ok := c.lockOperand(sel.X); ok {
			return acquisition{
				kind: acqLock, rank: rank, key: key,
				read:  strings.Contains(sel.Sel.Name, "R"),
				label: key,
			}
		}
	case "Unlock", "RUnlock":
		if key, rank, ok := c.lockOperand(sel.X); ok {
			return acquisition{
				kind: acqUnlock, rank: rank, key: key,
				read: sel.Sel.Name == "RUnlock",
			}
		}
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return acquisition{kind: acqNone}
	}
	if _, local := c.decls[fn]; local {
		return acquisition{kind: acqLocal, fn: fn, label: fn.Name()}
	}
	if recv := receiverTypePath(fn); recv != "" {
		if rank, ok := c.methodRank[recv+"."+fn.Name()]; ok {
			return acquisition{kind: acqTransient, rank: rank, label: fn.FullName()}
		}
		if rank, ok := c.typeRank[recv]; ok {
			return acquisition{kind: acqTransient, rank: rank, label: fn.FullName()}
		}
	}
	return acquisition{kind: acqNone}
}

// lockOperand resolves the receiver of a Lock/Unlock-family call to an
// instance key and hierarchy rank. It accepts any expression of mutex
// type; only field selectors resolve to a configured rank.
func (c *checker) lockOperand(x ast.Expr) (key string, rank int, ok bool) {
	tv, found := c.pass.TypesInfo.Types[x]
	if !found || !isMutexType(tv.Type) {
		return "", 0, false
	}
	rank = unranked
	if sel, isSel := x.(*ast.SelectorExpr); isSel {
		if s, hasSel := c.pass.TypesInfo.Selections[sel]; hasSel && s.Kind() == types.FieldVal {
			if fieldVar, isVar := s.Obj().(*types.Var); isVar {
				if owner := namedTypePath(s.Recv()); owner != "" {
					if r, classed := c.mutexRank[owner+"."+fieldVar.Name()]; classed {
						rank = r
					}
				}
			}
		}
	}
	return types.ExprString(x), rank, true
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// namedTypePath renders t's named type as "pkgpath.Type", looking through
// one pointer.
func namedTypePath(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverTypePath renders fn's receiver as "pkgpath.Type", or "" for
// plain functions.
func receiverTypePath(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return namedTypePath(sig.Recv().Type())
}

// held is one acquired lock in the walk state.
type held struct {
	rank     int
	key      string
	read     bool
	pos      token.Pos
	deferred bool
}

// checkFunc walks one function body, tracking held locks along the
// straight-line path and checking order at every acquisition and balance
// at every return.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	state := c.walkBlock(fd.Body, nil)
	if !endsTerminally(fd.Body.List) {
		c.checkBalance(state, fd.Body.End())
	}
}

// walkBlock walks stmts sequentially, mutating and returning the held
// state.
func (c *checker) walkBlock(b *ast.BlockStmt, state []held) []held {
	if b == nil {
		return state
	}
	for _, s := range b.List {
		state = c.walkStmt(s, state)
	}
	return state
}

func copyHeld(state []held) []held { return append([]held(nil), state...) }

func (c *checker) walkStmt(s ast.Stmt, state []held) []held {
	switch stmt := s.(type) {
	case *ast.BlockStmt:
		return c.walkBlock(stmt, state)
	case *ast.LabeledStmt:
		return c.walkStmt(stmt.Stmt, state)
	case *ast.IfStmt:
		if stmt.Init != nil {
			state = c.walkStmt(stmt.Init, state)
		}
		state = c.processExpr(stmt.Cond, state)
		c.walkBlock(stmt.Body, copyHeld(state))
		if stmt.Else != nil {
			c.walkStmt(stmt.Else, copyHeld(state))
		}
		return state
	case *ast.ForStmt:
		if stmt.Init != nil {
			state = c.walkStmt(stmt.Init, state)
		}
		if stmt.Cond != nil {
			state = c.processExpr(stmt.Cond, state)
		}
		body := copyHeld(state)
		body = c.walkBlock(stmt.Body, body)
		if stmt.Post != nil {
			c.walkStmt(stmt.Post, body)
		}
		return state
	case *ast.RangeStmt:
		state = c.processExpr(stmt.X, state)
		c.walkBlock(stmt.Body, copyHeld(state))
		return state
	case *ast.SwitchStmt:
		if stmt.Init != nil {
			state = c.walkStmt(stmt.Init, state)
		}
		if stmt.Tag != nil {
			state = c.processExpr(stmt.Tag, state)
		}
		for _, cc := range stmt.Body.List {
			clause := cc.(*ast.CaseClause)
			branch := copyHeld(state)
			for _, e := range clause.List {
				branch = c.processExpr(e, branch)
			}
			for _, bs := range clause.Body {
				branch = c.walkStmt(bs, branch)
			}
		}
		return state
	case *ast.TypeSwitchStmt:
		if stmt.Init != nil {
			state = c.walkStmt(stmt.Init, state)
		}
		for _, cc := range stmt.Body.List {
			clause := cc.(*ast.CaseClause)
			branch := copyHeld(state)
			for _, bs := range clause.Body {
				branch = c.walkStmt(bs, branch)
			}
		}
		return state
	case *ast.SelectStmt:
		for _, cc := range stmt.Body.List {
			clause := cc.(*ast.CommClause)
			branch := copyHeld(state)
			if clause.Comm != nil {
				branch = c.walkStmt(clause.Comm, branch)
			}
			for _, bs := range clause.Body {
				branch = c.walkStmt(bs, branch)
			}
		}
		return state
	case *ast.DeferStmt:
		return c.processDefer(stmt, state)
	case *ast.GoStmt:
		// The goroutine body runs on its own stack with no inherited
		// locks; analyze it independently.
		if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
			c.walkBlock(lit.Body, nil)
		}
		for _, arg := range stmt.Call.Args {
			state = c.processExpr(arg, state)
		}
		return state
	case *ast.ReturnStmt:
		for _, e := range stmt.Results {
			state = c.processExpr(e, state)
		}
		c.checkBalance(state, stmt.Pos())
		return state
	default:
		// Expression-bearing statements: process embedded calls in
		// source order.
		return c.processNode(s, state)
	}
}

// processExpr checks the calls embedded in one expression.
func (c *checker) processExpr(e ast.Expr, state []held) []held {
	if e == nil {
		return state
	}
	return c.processNode(e, state)
}

// processNode inspects n for call expressions (pruning function
// literals, which execute on their own schedule) and applies each to the
// held state in source order.
func (c *checker) processNode(n ast.Node, state []held) []held {
	ast.Inspect(n, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			c.walkBlock(lit.Body, nil)
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		state = c.apply(call, state)
		return true
	})
	return state
}

// apply folds one classified call into the held state, reporting
// inversions.
func (c *checker) apply(call *ast.CallExpr, state []held) []held {
	acq := c.classify(call)
	switch acq.kind {
	case acqLock:
		c.checkOrder(call.Pos(), acq.rank, fmt.Sprintf("%s.Lock", acq.key), state)
		return append(state, held{rank: acq.rank, key: acq.key, read: acq.read, pos: call.Pos()})
	case acqUnlock:
		for i := len(state) - 1; i >= 0; i-- {
			if state[i].key == acq.key && state[i].read == acq.read {
				return append(state[:i:i], state[i+1:]...)
			}
		}
		return state
	case acqTransient:
		c.checkOrder(call.Pos(), acq.rank, fmt.Sprintf("a call to %s", acq.label), state)
		return state
	case acqLocal:
		ranks := make([]int, 0, len(c.summary[acq.fn]))
		for r := range c.summary[acq.fn] {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			c.checkOrder(call.Pos(), r, fmt.Sprintf("a call to %s (which acquires %s locks)", acq.label, c.names[r]), state)
		}
		return state
	}
	return state
}

// checkOrder reports an inversion when rank is acquired below a held
// higher level. Unranked locks and same-level peers pass.
func (c *checker) checkOrder(pos token.Pos, rank int, what string, state []held) {
	if rank == unranked {
		return
	}
	for _, h := range state {
		if h.rank != unranked && h.rank > rank {
			c.pass.Reportf(pos,
				"lock order inversion: %s acquires a %q-level lock while %s (level %q) is held; the documented order is %s",
				what, c.names[rank], h.key, c.names[h.rank], c.chain())
			return
		}
	}
}

// processDefer handles a defer statement: a deferred unlock covers the
// matching held lock on every later return path; a deferred closure is
// scanned for the unlocks it performs.
func (c *checker) processDefer(stmt *ast.DeferStmt, state []held) []held {
	markDeferred := func(key string, read bool) {
		for i := len(state) - 1; i >= 0; i-- {
			if state[i].key == key && state[i].read == read && !state[i].deferred {
				state[i].deferred = true
				return
			}
		}
	}
	if acq := c.classify(stmt.Call); acq.kind == acqUnlock {
		markDeferred(acq.key, acq.read)
		return state
	}
	if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if acq := c.classify(call); acq.kind == acqUnlock {
					markDeferred(acq.key, acq.read)
				}
			}
			return true
		})
	}
	return state
}

// checkBalance reports held, non-deferred locks at a return point.
func (c *checker) checkBalance(state []held, pos token.Pos) {
	for _, h := range state {
		if h.deferred {
			continue
		}
		c.pass.Reportf(pos,
			"%s is locked at %s but not released on this return path: unlock it before returning or defer the unlock at the acquisition",
			h.key, c.pass.Fset.Position(h.pos))
	}
}

// endsTerminally reports whether the statement list cannot fall off the
// end (its last statement returns or panics), so the end-of-function
// balance check would double-report.
func endsTerminally(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.ForStmt:
		// An unconditional loop never falls through.
		return last.Cond == nil
	}
	return false
}
