// Package droppederr defines an analyzer forbidding silently discarded
// errors in the persistence and serving layers.
//
// Why this matters here: the storage, textio, snapshot, and HTTP packages
// are the repo's durability and integration boundary. A dropped write or
// encode error there does not crash — it truncates a snapshot, emits a
// half-written response body, or loses a set, and the next reader sees
// corruption with no trail back to the cause. (The seed repo shipped exactly
// this bug: server.writeJSON ignored json.Encoder.Encode's error.)
//
// The analyzer flags, in non-test code:
//
//   - `_ = f()` and `x, _ := f()` where the discarded value is the
//     predeclared error type;
//   - a call used as a bare statement whose signature returns an error
//     (every result discarded);
//   - `defer f.Close()` / `defer f.Sync()` on an *os.File and
//     `defer w.Flush()` on a *bufio.Writer. Deferred calls are otherwise
//     exempt (there is usually no error path to return on), but these are
//     the write-ahead-log bug class: a file or buffered writer that
//     silently loses its final flush surfaces as a truncated log,
//     snapshot, or benchmark report on the next read. Flush/close such
//     writers explicitly and surface the error (see
//     internal/wal.Writer.Close), or annotate read-only fds with
//     //ssrvet:ignore and the reason.
//
// Deliberate discards remain possible and visible: the never-failing
// writers *bytes.Buffer and *strings.Builder, the fmt.Print family, and
// fmt.Fprint* aimed at os.Stdout/os.Stderr (terminal diagnostics) are
// exempt; anything else needs an //ssrvet:ignore directive with a reason.
//
// What only this analyzer catches: server.writeJSON calling
// w.Write(append(body, '\n')) as a bare statement, and writeCheckpoint in
// internal/recovery calling f.Sync() as one. gofmt, go build, go vet and
// go test with and without -race all pass with either plant in: no test
// makes a response write or a checkpoint sync fail.
package droppederr

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags discarded errors on I/O and persistence call sites.
var Analyzer = &analysis.Analyzer{
	Name: "droppederr",
	Doc:  "forbid discarding errors (blank assignment or bare call statement) in persistence and serving code; dropped I/O errors surface later as silent corruption",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, stmt)
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				checkBareCall(pass, call)
			}
		case *ast.DeferStmt:
			checkDefer(pass, stmt)
		}
		return true
	})
	return nil
}

// checkDefer flags `defer f.Close()` / `defer f.Sync()` on *os.File and
// `defer w.Flush()` on *bufio.Writer: the deferred error vanishes, and
// for a written file or buffered writer that error is the only signal
// that buffered data never reached its destination.
func checkDefer(pass *analysis.Pass, stmt *ast.DeferStmt) {
	sel, ok := stmt.Call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recv := types.TypeString(sig.Recv().Type(), nil)
	switch {
	case recv == "*os.File" && (fn.Name() == "Close" || fn.Name() == "Sync"):
		pass.Reportf(stmt.Pos(), "deferred (*os.File).%s discards its error: a failed flush is silent data loss; close explicitly and check, or document a read-only fd with //ssrvet:ignore", fn.Name())
	case recv == "*bufio.Writer" && fn.Name() == "Flush":
		pass.Reportf(stmt.Pos(), "deferred (*bufio.Writer).Flush discards its error: the final buffer never reaching the underlying writer is silent truncation; flush explicitly and check the error")
	}
}

// checkAssign flags blank identifiers bound to error values.
func checkAssign(pass *analysis.Pass, stmt *ast.AssignStmt) {
	if len(stmt.Rhs) == 1 && len(stmt.Lhs) > 1 {
		// x, _ := f(): positions map through the call's result tuple.
		call, ok := stmt.Rhs[0].(*ast.CallExpr)
		if !ok {
			return // map/type-assert commas are boolean, not error
		}
		sig := callSignature(pass, call)
		if sig == nil || sig.Results().Len() != len(stmt.Lhs) {
			return
		}
		for i, lhs := range stmt.Lhs {
			if isBlank(lhs) && analysis.IsErrorType(sig.Results().At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s discarded with _: handle it or document the discard with //ssrvet:ignore", calleeName(pass, call))
			}
		}
		return
	}
	if len(stmt.Lhs) == len(stmt.Rhs) {
		for i, lhs := range stmt.Lhs {
			if !isBlank(lhs) {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[stmt.Rhs[i]]; ok && analysis.IsErrorType(tv.Type) {
				pass.Reportf(lhs.Pos(), "error value discarded with _: handle it or document the discard with //ssrvet:ignore")
			}
		}
	}
}

// checkBareCall flags expression statements that drop an error result.
func checkBareCall(pass *analysis.Pass, call *ast.CallExpr) {
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	returnsError := false
	for i := 0; i < sig.Results().Len(); i++ {
		if analysis.IsErrorType(sig.Results().At(i).Type()) {
			returnsError = true
			break
		}
	}
	if !returnsError || isExemptCallee(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "result of %s ignored: it returns an error; handle it or document the discard with //ssrvet:ignore", calleeName(pass, call))
}

// callSignature resolves the signature of call's callee, or nil for type
// conversions and builtins.
func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isExemptCallee allows the never-failing writers and terminal print
// helpers whose error results are conventionally ignored.
func isExemptCallee(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			// Terminal diagnostics: writing to the process's own stdout or
			// stderr is the Print family with the stream spelled out. Any
			// other writer (a file, a response body) keeps the check.
			return len(call.Args) > 0 && isStdStream(pass, call.Args[0])
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	switch types.TypeString(sig.Recv().Type(), nil) {
	case "*bytes.Buffer", "*strings.Builder":
		return true
	}
	return false
}

// isStdStream reports whether e names os.Stdout, os.Stderr, or
// flag.CommandLine.Output() — the process's own terminal streams.
func isStdStream(pass *analysis.Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		obj, ok := pass.TypesInfo.Uses[x.Sel]
		if !ok {
			return false
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil || v.Pkg().Path() != "os" {
			return false
		}
		return v.Name() == "Stdout" || v.Name() == "Stderr"
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		return ok && fn.FullName() == "(*flag.FlagSet).Output"
	}
	return false
}

// calleeName renders the called function for the diagnostic.
func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return obj.FullName()
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}
