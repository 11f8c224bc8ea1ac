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
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// CalleeObject resolves the object a call expression invokes: a
// package-level function, a method, or nil for indirect calls through
// function values, built-ins, and type conversions.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if o := info.Uses[fun]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj() // method or field call
		}
		// Qualified identifier: pkg.Func.
		if o := info.Uses[fun.Sel]; o != nil {
			if _, ok := o.(*types.Func); ok {
				return o
			}
		}
	}
	return nil
}

// IsPkgFunc reports whether the call invokes the named package-level
// function of the package identified by pkgTarget (matched with
// PkgPathIs). Methods do not match.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgTarget, name string) bool {
	obj := CalleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	if fn.Signature().Recv() != nil {
		return false
	}
	return PkgPathIs(fn.Pkg().Path(), pkgTarget)
}

// NamedTypeIs reports whether t (after unwrapping pointers and aliases)
// is the named type pkgTarget.name.
func NamedTypeIs(t types.Type, pkgTarget, name string) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PkgPathIs(obj.Pkg().Path(), pkgTarget)
}

// SubtreeHasType reports whether any expression in the subtree rooted at
// e has one of the given named types (pkgTarget, name pairs flattened as
// [path1, name1, path2, name2, ...]).
func SubtreeHasType(info *types.Info, e ast.Expr, pairs ...string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		ex, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		t := info.TypeOf(ex)
		for i := 0; i+1 < len(pairs); i += 2 {
			if NamedTypeIs(t, pairs[i], pairs[i+1]) {
				found = true
				return false
			}
		}
		return true
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
