// Package anonleak makes the PR 8 telemetry-linkage guarantee a
// compile-time property: no identity- or endpoint-typed value may reach
// an observability export outside the internal/obs redaction seam.
//
// The runtime guarantee is that RedactAnonymous scrubs a fixed set of
// sensitive span-attribute keys (and zeroes trace ids) at record time, so
// exported telemetry joins to nothing. That protects exactly the keys the
// seam knows about. The remaining hole is structural: a span attribute
// recorded under a key redaction does NOT scrub, whose value derives from
// a transport address, node identity, or lookup key — or the same value
// printed straight to a process log. The adversary/telemetry.go attack
// reconstructs initiator→target joins from precisely such residue.
//
// anonleak therefore flags, outside internal/obs and outside test files:
//
//   - obs.A(key, value) calls and obs.Attr literals whose value derives
//     from an identity-typed expression (transport.Addr, chord.Peer,
//     id.ID) while the key is NOT in the redaction seam's sensitive set
//     (values under sensitive keys are scrubbed before export and are
//     therefore fine to record);
//   - identity-typed values flowing into process logs (log.*, slog.*, and
//     fmt prints to stdout/stderr) inside the protocol packages.
//
// The sensitive-key set is parsed from internal/obs's own source (the
// sensitiveAttrs map), so the analyzer cannot drift from the seam it
// polices; a built-in copy covers trees where that source is absent.
package anonleak

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/octopus-dht/octopus/tools/octolint/lintcore"
)

// Analyzer is the anonleak pass.
var Analyzer = lintcore.New(&lintcore.Analyzer{
	Name: "anonleak",
	Doc:  "flag identity/endpoint-typed values reaching telemetry or logs outside the internal/obs redaction seam",
	Run:  run,
})

// identityTypes are the named types whose values identify a node,
// endpoint, or lookup target: [pkg-path-suffix, type-name] pairs for
// lintcore.SubtreeHasType.
var identityTypes = []string{
	"internal/transport", "Addr",
	"internal/chord", "Peer",
	"internal/id", "ID",
}

// protocolPkgs are the packages whose process output could be harvested
// by a telemetry observer; logging an identity there is a linkage leak.
var protocolPkgs = []string{
	"internal/core",
	"internal/chord",
	"internal/store",
	"internal/simnet",
	"internal/transport",
	"internal/transport/actor",
	"internal/transport/chantransport",
	"internal/transport/nettransport",
}

// builtinSensitiveKeys mirrors internal/obs's sensitiveAttrs map as of
// this pass's writing; loadSensitiveKeys prefers the live source.
var builtinSensitiveKeys = map[string]bool{
	"initiator": true, "target": true, "target_key": true, "key": true,
	"from": true, "next": true, "pair_first": true, "pair_second": true,
}

func run(pass *lintcore.Pass) error {
	pkgPath := lintcore.BasePkgPath(pass.Pkg.Path())
	if lintcore.PkgPathIs(pkgPath, "internal/obs") {
		return nil // the redaction seam itself
	}
	sensitive := loadSensitiveKeys(lintcore.RepoRoot(pass.DocRoot, pass.Dir))
	inProtocol := slices.ContainsFunc(protocolPkgs, func(p string) bool { return lintcore.PkgPathIs(pkgPath, p) })

	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkAttrCall(pass, n, sensitive)
				if inProtocol {
					checkLogCall(pass, n)
				}
			case *ast.CompositeLit:
				checkAttrLiteral(pass, n, sensitive)
			}
			return true
		})
	}
	return nil
}

// checkAttrCall handles obs.A(key, value).
func checkAttrCall(pass *lintcore.Pass, call *ast.CallExpr, sensitive map[string]bool) {
	if !lintcore.IsPkgFunc(pass.TypesInfo, call, "internal/obs", "A") || len(call.Args) != 2 {
		return
	}
	checkAttr(pass, call.Pos(), call.Args[0], call.Args[1], sensitive)
}

// checkAttrLiteral handles obs.Attr{Key: ..., Value: ...} literals.
func checkAttrLiteral(pass *lintcore.Pass, lit *ast.CompositeLit, sensitive map[string]bool) {
	t := pass.TypesInfo.TypeOf(lit)
	if !lintcore.NamedTypeIs(t, "internal/obs", "Attr") {
		return
	}
	var key, value ast.Expr
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				switch id.Name {
				case "Key":
					key = kv.Value
				case "Value":
					value = kv.Value
				}
			}
			continue
		}
		// Positional literal: Attr{key, value}.
		switch i {
		case 0:
			key = el
		case 1:
			value = el
		}
	}
	if key == nil || value == nil {
		return
	}
	checkAttr(pass, lit.Pos(), key, value, sensitive)
}

func checkAttr(pass *lintcore.Pass, pos token.Pos, key, value ast.Expr, sensitive map[string]bool) {
	if !lintcore.SubtreeHasType(pass.TypesInfo, value, identityTypes...) {
		return
	}
	k, konst := lintcore.ConstString(pass.TypesInfo, key)
	if konst && sensitive[k] {
		return // scrubbed by RedactAnonymous before export
	}
	if konst {
		pass.Reportf(pos,
			"span attribute %q carries an identity/endpoint-typed value but is not in internal/obs's sensitive-key set; redaction will export it verbatim and hand a telemetry observer a linkage key", k)
		return
	}
	pass.Reportf(pos,
		"span attribute with a non-constant key carries an identity/endpoint-typed value; redaction cannot prove this key is scrubbed — use a constant key from the sensitive set")
}

// logSinkFuncs are package-level print functions whose output leaves the
// process unredacted.
var logSinkFuncs = map[string]map[string]bool{
	"log": {
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	},
	"log/slog": {
		"Debug": true, "Info": true, "Warn": true, "Error": true,
		"DebugContext": true, "InfoContext": true, "WarnContext": true, "ErrorContext": true,
		"Log": true, "LogAttrs": true,
	},
}

// checkLogCall flags identity-typed values in process-log output within
// protocol packages: log/slog calls (package-level or method), and fmt
// prints addressed to stdout/stderr. fmt.Sprintf and prints into local
// buffers are functional string building, not an export, and are not
// flagged.
func checkLogCall(pass *lintcore.Pass, call *ast.CallExpr) {
	obj := lintcore.CalleeObject(pass.TypesInfo, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	sink := false
	switch {
	case logSinkFuncs[path] != nil && fn.Signature().Recv() == nil:
		sink = logSinkFuncs[path][name]
	case path == "log" || path == "log/slog":
		sink = strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fatal") ||
			strings.HasPrefix(name, "Panic") || name == "Debug" || name == "Info" ||
			name == "Warn" || name == "Error" || name == "Log" || name == "LogAttrs"
	case path == "fmt" && (name == "Print" || name == "Printf" || name == "Println"):
		sink = true
	case path == "fmt" && (name == "Fprint" || name == "Fprintf" || name == "Fprintln"):
		sink = len(call.Args) > 0 && isStdStream(pass.TypesInfo, call.Args[0])
	}
	if !sink {
		return
	}
	for _, arg := range call.Args {
		if lintcore.SubtreeHasType(pass.TypesInfo, arg, identityTypes...) {
			pass.Reportf(call.Pos(),
				"identity/endpoint-typed value printed to a process log in a protocol package; logs bypass the internal/obs redaction seam — record a span with a sensitive-set key instead")
			return
		}
	}
}

// isStdStream reports whether e resolves to os.Stdout or os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != "os" {
		return false
	}
	return v.Name() == "Stdout" || v.Name() == "Stderr"
}

// loadSensitiveKeys parses the sensitiveAttrs map literal out of
// internal/obs's source under root, falling back to the built-in copy.
func loadSensitiveKeys(root string) map[string]bool {
	if root == "" {
		return builtinSensitiveKeys
	}
	dir := filepath.Join(root, "internal", "obs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return builtinSensitiveKeys
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		if keys := sensitiveMapKeys(f); keys != nil {
			return keys
		}
	}
	return builtinSensitiveKeys
}

// sensitiveMapKeys extracts the string keys of a package-level
// `sensitiveAttrs = map[string]bool{...}` declaration.
func sensitiveMapKeys(f *ast.File) map[string]bool {
	var lit *ast.CompositeLit
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || lit != nil {
			return true
		}
		for i, name := range spec.Names {
			if name.Name == "sensitiveAttrs" && i < len(spec.Values) {
				if cl, ok := spec.Values[i].(*ast.CompositeLit); ok {
					lit = cl
				}
			}
		}
		return true
	})
	if lit == nil {
		return nil
	}
	keys := map[string]bool{}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if bl, ok := kv.Key.(*ast.BasicLit); ok && bl.Kind == token.STRING && len(bl.Value) >= 2 {
			keys[bl.Value[1:len(bl.Value)-1]] = true
		}
	}
	if len(keys) == 0 {
		return nil
	}
	return keys
}
