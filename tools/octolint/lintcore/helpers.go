package lintcore

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// PkgPathIs matches an import path against a target, tolerating both the
// repository's full module prefix and the bare fixture paths linttest
// loads: "github.com/octopus-dht/octopus/internal/obs" and "internal/obs"
// both match target "internal/obs"; stdlib targets ("time") match exactly.
func PkgPathIs(path, target string) bool {
	return path == target || strings.HasSuffix(path, "/"+target)
}

// BasePkgPath strips the " [pkg.test]" variant suffix the build system
// appends to in-package test compilations, so scope checks see the plain
// import path.
func BasePkgPath(path string) string {
	path, _, _ = strings.Cut(path, " ")
	return path
}

// CalleeObject resolves the object a call expression invokes: a
// package-level function, a method, or nil for indirect calls through
// function values, built-ins, and type conversions.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	var name *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj() // method or field call
		}
		name = fun.Sel // qualified identifier: pkg.Func
	}
	if fn, ok := info.Uses[name].(*types.Func); ok {
		return fn
	}
	return nil
}

// IsPkgFunc reports whether the call invokes the named package-level
// function of the package identified by pkgTarget (matched with
// PkgPathIs). Methods do not match.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgTarget, name string) bool {
	fn, ok := CalleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Name() != name || fn.Signature().Recv() != nil {
		return false
	}
	return PkgPathIs(fn.Pkg().Path(), pkgTarget)
}

// NamedTypeIs reports whether t (after unwrapping pointers and aliases)
// is the named type pkgTarget.name.
func NamedTypeIs(t types.Type, pkgTarget, name string) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name && n.Obj().Pkg() != nil && PkgPathIs(n.Obj().Pkg().Path(), pkgTarget)
}

// SubtreeHasType reports whether any expression in the subtree rooted at
// e has one of the given named types (pkgTarget, name pairs flattened as
// [path1, name1, path2, name2, ...]).
func SubtreeHasType(info *types.Info, e ast.Expr, pairs ...string) bool {
	return AnyNode(e, func(n ast.Node) bool {
		ex, ok := n.(ast.Expr)
		for i := 0; ok && i+1 < len(pairs); i += 2 {
			if NamedTypeIs(info.TypeOf(ex), pairs[i], pairs[i+1]) {
				return true
			}
		}
		return false
	})
}

// AnyNode reports whether match holds for any node of the subtree rooted at
// root, and stops the walk at the first that does.
func AnyNode(root ast.Node, match func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		found = found || n != nil && match(n)
		return !found
	})
	return found
}

// RepoRoot resolves the repository root for a pass: the explicit DocRoot
// override if set, otherwise the nearest ancestor of dir containing
// go.mod. Returns "" when neither resolves.
func RepoRoot(docRoot, dir string) string {
	if docRoot != "" {
		return docRoot
	}
	d := dir
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d || d == "" {
			return ""
		}
		d = parent
	}
}

// ConstString returns the constant string value of e, if it has one.
func ConstString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
