// Package atomicview defines an analyzer for mixed atomic and plain access
// to one field.
//
// Why this matters here: counters bumped with the sync/atomic free
// functions (atomic.AddInt64(&x.n, 1)) are only race-free if every other
// access goes through sync/atomic too. A single plain `x.n++` or `return
// x.n` elsewhere compiles to an unsynchronized access, and the race
// detector only reports it on a schedule where the two meet.
//
// The analyzer flags a plain read or write of a plain-typed field that is
// elsewhere in the package passed by address to a sync/atomic function,
// at every plain site.
//
// What only this analyzer catches: server's statCounters.queries as a
// plain int64, bumped with atomic.AddInt64 in record and read plainly in
// handleStats. gofmt, go build, go vet and go test with and without -race
// all pass with that plant in. Fields of the sync/atomic types
// (atomic.Pointer[T], atomic.Int64, ...) need no check here: go vet's
// copylocks already rejects copying one, as in `v := e.view`.
//
// Initialization in a constructor is not exempted automatically: even
// before publication an atomic store costs nothing, and exempting
// "constructors" statically is guesswork. The rare deliberate
// pre-publication plain write takes an //ssrvet:ignore with its reason.
package atomicview

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags non-atomic access to atomically-shared fields.
var Analyzer = &analysis.Analyzer{
	Name: "atomicview",
	Doc:  "require every access to a field updated through the sync/atomic functions to go through sync/atomic too; one plain access is an undetected data race",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	v := &visitor{pass: pass, atomicFn: map[*types.Var][]token.Pos{}, plain: map[*types.Var][]token.Pos{}}
	for _, f := range pass.Files {
		v.file(f)
	}
	// Mixed-view check: plain uses of fields that are elsewhere updated
	// through the sync/atomic free functions.
	for field, plainSites := range v.plain {
		if len(v.atomicFn[field]) == 0 {
			continue
		}
		for _, pos := range plainSites {
			pass.Reportf(pos, "field %s is updated through sync/atomic elsewhere (e.g. %s); this plain access is a data race — use atomic loads/stores for every access", field.Name(), pass.Fset.Position(v.atomicFn[field][0]))
		}
	}
	return nil
}

type visitor struct {
	pass *analysis.Pass
	// atomicFn records fields passed as &x.f to sync/atomic functions.
	atomicFn map[*types.Var][]token.Pos
	// plain records every other use of those candidate fields.
	plain map[*types.Var][]token.Pos
}

// file walks one file with an explicit parent stack, so a selector's use
// context (sync/atomic operand vs. plain access) is decidable.
func (v *visitor) file(f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.SelectorExpr:
			v.selector(x, stack)
		case *ast.CallExpr:
			v.call(x)
		}
		return true
	})
}

// selector checks one field access.
func (v *visitor) selector(sel *ast.SelectorExpr, stack []ast.Node) {
	s, ok := v.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	// Classify this use as atomic (&x.f passed to a sync/atomic
	// function) or plain.
	if isAtomicFnOperand(v.pass, sel, stack) {
		return // recorded by call()
	}
	v.plain[field] = append(v.plain[field], sel.Pos())
}

// call records fields whose address feeds a sync/atomic free function.
func (v *visitor) call(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := v.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	for _, arg := range call.Args {
		un, ok := arg.(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			continue
		}
		fsel, ok := un.X.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if s, ok := v.pass.TypesInfo.Selections[fsel]; ok && s.Kind() == types.FieldVal {
			if field, ok := s.Obj().(*types.Var); ok {
				v.atomicFn[field] = append(v.atomicFn[field], un.Pos())
			}
		}
	}
}

// isAtomicFnOperand reports whether sel is the &-operand of a sync/atomic
// free-function call (atomic.AddUint64(&x.f, 1)).
func isAtomicFnOperand(pass *analysis.Pass, sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	un, ok := stack[len(stack)-2].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND || un.X != sel {
		return false
	}
	call, ok := stack[len(stack)-3].(*ast.CallExpr)
	if !ok {
		return false
	}
	fsel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[fsel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}
