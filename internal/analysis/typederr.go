package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// typederr protects the typed error taxonomy the cluster lives on.
// Every error that can cross the wire boundary — peer envelopes,
// /v1 error codes, the breaker/fallback decisions keyed off
// errors.Is(err, ErrPeerDown) — must wrap a sentinel, or the
// taxonomy silently degrades to string matching: the transport's
// WireErrors table cannot translate it, the breaker misclassifies it,
// and the 502/504/409 status mapping falls through to 500. So inside
// the wire-boundary packages (internal/cluster, internal/server):
//
//   - errors.New is legal only at package level, where it MINTS a
//     sentinel; inside a function it creates an unmatchable one-off.
//   - fmt.Errorf must carry %w, wrapping either a sentinel or the
//     underlying cause, so errors.Is/As keep working stack-wide.
//
// Validation-only helpers that provably never reach the wire carry
// suppressions with reasons.

// typederrScopedPkgs are the wire-boundary packages.
var typederrScopedPkgs = map[string]bool{
	"repro/internal/cluster": true,
	"repro/internal/server":  true,
}

// TypedErr returns the typed-error-taxonomy analyzer.
func TypedErr() *Analyzer {
	return &Analyzer{
		Name: "typederr",
		Doc:  "wire-boundary errors must wrap a sentinel: no errors.New in function bodies, no fmt.Errorf without %w, in internal/cluster and internal/server",
		Run:  runTypedErr,
	}
}

func runTypedErr(pass *Pass) {
	if !typederrScopedPkgs[pass.PkgPath] {
		return
	}
	for _, f := range pass.Files {
		imports := fileImports(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				// Package-level declarations may mint sentinels.
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkgID, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch {
				case imports[pkgID.Name] == "errors" && sel.Sel.Name == "New":
					pass.Reportf(call.Pos(),
						"errors.New inside a function creates an unmatchable one-off error: mint a package-level sentinel and wrap it with fmt.Errorf(\"...: %%w\", Err...) so errors.Is works across the wire")
				case imports[pkgID.Name] == "fmt" && sel.Sel.Name == "Errorf":
					if format, ok := constStringArg(call); ok && !strings.Contains(format, "%w") {
						pass.Reportf(call.Pos(),
							"fmt.Errorf without %%w drops the typed taxonomy: wrap a sentinel or the cause so errors.Is keeps working once this error crosses the wire")
					}
				}
				return true
			})
		}
	}
}

// constStringArg extracts the call's first argument when it is a
// compile-time string (literal or concatenation of literals).
func constStringArg(call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	return constString(call.Args[0])
}

// constString folds an expression to a string constant syntactically.
func constString(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		// The raw literal text (quotes included) is enough: no escape
		// sequence can spell "%w", so substring matching stays sound.
		return e.Value, true
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		l, lok := constString(e.X)
		r, rok := constString(e.Y)
		if lok && rok {
			return l + r, true
		}
	case *ast.ParenExpr:
		return constString(e.X)
	}
	return "", false
}

// importName returns the local name an import is bound to in a file:
// the explicit alias, or the path's last element.
func importName(imp *ast.ImportSpec) string {
	if imp.Name != nil {
		return imp.Name.Name
	}
	path, err := strconv.Unquote(imp.Path.Value)
	if err != nil {
		return ""
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// fileImports maps each local import name of f to its import path —
// the syntactic resolution typederr uses to recognise qualified
// references like errors.New.
func fileImports(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		if name := importName(imp); name != "" && name != "_" && name != "." {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil {
				out[name] = path
			}
		}
	}
	return out
}
