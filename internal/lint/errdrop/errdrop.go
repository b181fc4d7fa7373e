// Package errdrop rejects silently discarded errors in the command-line
// tools and the serving and sweep packages — the bug class PR 1 fixed by hand
// (swallowed workload.ByName errors, unexamined Close results on journal
// files). A call whose error result is dropped on the floor, whether as a
// bare statement, a deferred call, or an assignment to _, is a finding.
//
// fmt's Print family and the never-failing writers (strings.Builder,
// bytes.Buffer) are exempt, matching the convention of classic errcheck.
// Deliberate drops (a read-only file's Close, a best-effort cleanup on an
// error path) are suppressed with a justified //xbc:ignore errdrop
// directive.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"xbc/internal/lint"
)

// Analyzer is the errdrop check.
var Analyzer = &lint.Analyzer{
	Name: "errdrop",
	Doc:  "rejects discarded error results in cmd/, internal/planner, internal/cluster, internal/service, and internal/store",
	Match: func(path string) bool {
		return strings.HasPrefix(path, "xbc/cmd/") ||
			strings.HasPrefix(path, "xbc/internal/service") ||
			strings.HasPrefix(path, "xbc/internal/store") ||
			strings.HasPrefix(path, "xbc/internal/planner") ||
			strings.HasPrefix(path, "xbc/internal/cluster")
	},
	Run: run,
}

func run(pass *lint.Pass) {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				checkCall(pass, call, "")
			}
		case *ast.DeferStmt:
			checkCall(pass, n.Call, "deferred ")
		case *ast.GoStmt:
			checkCall(pass, n.Call, "spawned ")
		case *ast.AssignStmt:
			checkAssign(pass, n)
		}
		return true
	})
}

// checkCall flags a statement-position call that returns an error.
func checkCall(pass *lint.Pass, call *ast.CallExpr, kind string) {
	info := pass.Pkg.Info
	t := info.TypeOf(call)
	if t == nil || !resultHasError(t) || exempt(info, call) {
		return
	}
	pass.Reportf(call.Pos(), "%scall to %s discards its error; handle it or justify with //xbc:ignore errdrop <reason>", kind, calleeName(info, call))
}

// checkAssign flags error results assigned to the blank identifier.
func checkAssign(pass *lint.Pass, as *ast.AssignStmt) {
	info := pass.Pkg.Info
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Tuple form: a, _ := f()
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || exempt(info, call) {
			return
		}
		tuple, ok := info.TypeOf(call).(*types.Tuple)
		if !ok {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && i < tuple.Len() && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s assigned to _; handle it or justify with //xbc:ignore errdrop <reason>", calleeName(info, call))
			}
		}
		return
	}
	for i := range as.Lhs {
		if !isBlank(as.Lhs[i]) || i >= len(as.Rhs) {
			continue
		}
		t := info.TypeOf(as.Rhs[i])
		if t == nil || !isErrorType(t) {
			continue
		}
		if call, ok := as.Rhs[i].(*ast.CallExpr); ok && exempt(info, call) {
			continue
		}
		pass.Reportf(as.Lhs[i].Pos(), "error value assigned to _; handle it or justify with //xbc:ignore errdrop <reason>")
	}
}

// isBlank reports whether an expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// resultHasError reports whether a call result type includes error.
func resultHasError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// exempt reports whether the callee belongs to the never-fail allowlist.
func exempt(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
		return true
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
		// Fprint to the never-failing in-memory writers, or diagnostics to
		// the process's standard streams (a failed write to a closed stderr
		// has no one left to tell), only.
		if len(call.Args) > 0 {
			if t := info.TypeOf(call.Args[0]); t != nil && neverFailWriter(t) {
				return true
			}
			if isStdStream(info, call.Args[0]) {
				return true
			}
		}
		return false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && neverFailWriter(recv.Type()) {
		return true
	}
	return false
}

// isStdStream reports whether the expression names os.Stdout or
// os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != "os" {
		return false
	}
	return v.Name() == "Stderr" || v.Name() == "Stdout"
}

// neverFailWriter recognizes the stdlib writers documented to never
// return a non-nil error.
func neverFailWriter(t types.Type) bool {
	s := strings.TrimPrefix(t.String(), "*")
	return s == "strings.Builder" || s == "bytes.Buffer"
}

// calleeName renders the called expression for the report.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return types.ExprString(fun)
	default:
		return "function"
	}
}
