// Package guardedescape defines an analyzer forbidding methods on
// mutex-holding structs from returning internal slices or maps that alias
// lock-guarded state.
//
// Why this matters here: the service layer documents "safe for concurrent
// use" on types like ssr.Collection, core.Index, and server.Server, and
// backs the promise with a sync.Mutex/RWMutex field. That promise is void
// if a method hands out a reference into guarded state — the caller then
// reads (or worse, appends to) the slice after the lock is released, racing
// with the next mutation. The race detector only catches the schedules it
// sees; this analyzer rejects the aliasing shape outright: a return of
// recv.field (or recv.a.b) whose type is a slice or map, from a method on a
// struct that carries a mutex.
//
// The required pattern is to copy before returning (as Collection.Get and
// Index.Sets already do). Read-only escape hatches must carry an
// //ssrvet:ignore directive and a comment explaining why aliasing is safe
// (e.g. the field is immutable after construction).
//
// What only this analyzer catches: a Collection method that returns c.sets
// under c.mu, used by ssr.Build in place of its copy. gofmt, go build,
// go vet and go test with and without -race all pass with that plant in.
package guardedescape

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags lock-guarded aliasing returns.
var Analyzer = &analysis.Analyzer{
	Name: "guardedescape",
	Doc:  "forbid methods on mutex-holding structs from returning internal slices/maps that alias lock-guarded state; return a copy instead",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	guarded := mutexHolders(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || fn.Body == nil {
				continue
			}
			recvField := fn.Recv.List[0]
			named := receiverNamed(pass, recvField)
			if named == nil || !guarded[named] {
				continue
			}
			var recvObj types.Object
			if len(recvField.Names) == 1 {
				recvObj = pass.TypesInfo.Defs[recvField.Names[0]]
			}
			if recvObj == nil {
				continue // anonymous receiver cannot leak its fields
			}
			checkMethod(pass, fn, recvObj)
		}
	}
	return nil
}

// mutexHolders finds the package's named struct types with a direct
// sync.Mutex or sync.RWMutex field (named or embedded).
func mutexHolders(pass *analysis.Pass) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if isMutex(st.Field(i).Type()) {
				out[named] = true
				break
			}
		}
	}
	return out
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (possibly behind
// a pointer).
func isMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
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

// receiverNamed resolves the receiver field's base named type.
func receiverNamed(pass *analysis.Pass, recv *ast.Field) *types.Named {
	tv, ok := pass.TypesInfo.Types[recv.Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkMethod walks the method body for returns of receiver-rooted
// selector chains with slice or map type. Function literals inside the
// method are walked too: they close over the same receiver.
func checkMethod(pass *analysis.Pass, fn *ast.FuncDecl, recvObj types.Object) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			expr := ast.Unparen(res)
			if !rootedAtReceiver(pass, expr, recvObj) {
				continue
			}
			tv, ok := pass.TypesInfo.Types[expr]
			if !ok {
				continue
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(res.Pos(),
					"method %s returns %s, aliasing state guarded by the struct's mutex: return a copy (or document immutability with //ssrvet:ignore)",
					fn.Name.Name, types.ExprString(res))
			}
		}
		return true
	})
}

// rootedAtReceiver reports whether expr is a selector chain (x.f, x.f.g,
// possibly with parens) whose root identifier is the method receiver.
func rootedAtReceiver(pass *analysis.Pass, expr ast.Expr, recvObj types.Object) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	for {
		x := ast.Unparen(sel.X)
		switch inner := x.(type) {
		case *ast.SelectorExpr:
			sel = inner
		case *ast.Ident:
			return pass.TypesInfo.Uses[inner] == recvObj
		default:
			return false
		}
	}
}
