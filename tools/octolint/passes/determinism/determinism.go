// Package determinism enforces the seeded-replay invariant: every run of
// the simulated protocol stack with the same seed must be bit-identical,
// because the committed figures, the seeded digest rows, and
// the chaos-replay regression tests are all pinned to exact seeded
// trajectories. Three bug classes have broken that repeatedly:
//
//   - wall-clock reads (time.Now) leaking into protocol decisions,
//   - the global math/rand source (process-wide, seeded from entropy since
//     Go 1.20) or an explicitly time-seeded rand.Source, and
//   - ranging over a map while producing encoder/hash/wire output — Go
//     randomizes map iteration order per run.
//
// The first two are flagged only inside the seeded packages
// (internal/core, internal/chord, internal/simnet, internal/experiments);
// time-seeded sources are flagged everywhere (a time-seeded RNG once made
// joiner identity keys recoverable from the public ring ID). Test files
// are exempt: they drive wall-clock transports deliberately.
package determinism

import (
	"go/ast"
	"go/types"
	"slices"

	"github.com/octopus-dht/octopus/tools/octolint/lintcore"
)

// Analyzer is the determinism pass.
var Analyzer = lintcore.New(&lintcore.Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock, global/time-seeded RNG, and map-order-dependent encoding in seeded packages",
	Run:  run,
})

// seededPkgs are the packages whose behavior is pinned by seed.
var seededPkgs = []string{
	"internal/core",
	"internal/chord",
	"internal/simnet",
	"internal/experiments",
}

// globalRandFuncs are the package-level functions of math/rand (and v2)
// that draw from the shared, entropy-seeded source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// encodeSinkNames are method/function names whose presence in a function
// marks it as producing encoder, hash, or wire fan-out output; a map
// iteration in such a function is order-sensitive. Collecting keys into a
// slice and sorting before the loop is the sanctioned pattern and does
// not trigger (the loop then ranges over a slice).
var encodeSinkNames = map[string]bool{
	"Encode": true, "EncodeTo": true, "EncodeBuf": true,
	"Send": true, "Call": true, "AnonRPC": true,
	"Sum64": true,
}

func run(pass *lintcore.Pass) error {
	pkgPath := lintcore.BasePkgPath(pass.Pkg.Path())
	inSeeded := slices.ContainsFunc(seededPkgs, func(p string) bool { return lintcore.PkgPathIs(pkgPath, p) })

	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			checkDecl(pass, decl, inSeeded)
		}
	}
	return nil
}

func checkDecl(pass *lintcore.Pass, decl ast.Decl, inSeeded bool) {
	fn, isFunc := decl.(*ast.FuncDecl)
	sinky := isFunc && functionFeedsEncoding(pass, fn)

	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n, inSeeded)
		case *ast.RangeStmt:
			if inSeeded && sinky && isMapType(pass.TypesInfo.TypeOf(n.X)) &&
				!sortedAfterLoop(pass, decl, n) {
				pass.Reportf(n.Pos(),
					"map iteration in a function that feeds encoding or wire output; iteration order is randomized per run — collect and sort the keys first (seeded runs must replay bit-identically)")
			}
		}
		return true
	})
}

func checkCall(pass *lintcore.Pass, call *ast.CallExpr, inSeeded bool) {
	path, name := randFunc(pass.TypesInfo, call)
	// Time-seeded RNG sources are wrong in every package: a source seeded
	// from the clock is both nondeterministic and (for key material)
	// recoverable by an attacker who can bound the start time.
	switch name {
	case "NewSource", "New", "NewPCG", "NewChaCha8", "NewZipf":
		for _, arg := range call.Args {
			if subtreeReadsClock(pass.TypesInfo, arg) {
				pass.Reportf(call.Pos(),
					"RNG seeded from the wall clock; derive the seed from configuration (seeded replay) or crypto/rand (key material)")
				return
			}
		}
	}

	if !inSeeded {
		return
	}
	if lintcore.IsPkgFunc(pass.TypesInfo, call, "time", "Now") {
		pass.Reportf(call.Pos(),
			"time.Now in a seeded package; use the transport clock (virtual under simnet) so seeded runs replay bit-identically")
		return
	}
	if globalRandFuncs[name] {
		pass.Reportf(call.Pos(),
			"global %s.%s draws from the process-wide entropy-seeded source; use a *rand.Rand derived from the run seed", path, name)
	}
}

// randFunc returns the package path and name of the math/rand or
// math/rand/v2 package-level function the call invokes; name is "" for any
// other call.
func randFunc(info *types.Info, call *ast.CallExpr) (path, name string) {
	fn, ok := lintcore.CalleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return "", ""
	}
	if path = fn.Pkg().Path(); path != "math/rand" && path != "math/rand/v2" {
		return "", ""
	}
	return path, fn.Name()
}

// subtreeReadsClock reports whether the expression contains a call to
// time.Now or a Unix/UnixNano/UnixMicro/UnixMilli conversion of one.
func subtreeReadsClock(info *types.Info, e ast.Expr) bool {
	return lintcore.AnyNode(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && lintcore.IsPkgFunc(info, call, "time", "Now")
	})
}

// functionFeedsEncoding reports whether the function emits encoded/wire/hash
// output: it takes a transport.Codec (a message's Code method, a field-list
// helper), or its body calls a name from encodeSinkNames or any method on a
// transport.Codec.
func functionFeedsEncoding(pass *lintcore.Pass, fn *ast.FuncDecl) bool {
	if fn.Body == nil {
		return false
	}
	for _, f := range fn.Type.Params.List {
		if lintcore.NamedTypeIs(pass.TypesInfo.TypeOf(f.Type), "internal/transport", "Codec") {
			return true
		}
	}
	return bodyFeedsEncoding(pass, fn.Body)
}

// bodyFeedsEncoding reports whether the subtree contains a call that emits
// encoded/wire/hash output.
func bodyFeedsEncoding(pass *lintcore.Pass, body ast.Node) bool {
	return lintcore.AnyNode(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		// Any method on the wire codec counts: c.U64(...) etc.
		return ok && (encodeSinkNames[sel.Sel.Name] ||
			lintcore.NamedTypeIs(pass.TypesInfo.TypeOf(sel.X), "internal/transport", "Codec"))
	})
}

// sortedAfterLoop recognizes the sanctioned collect-then-sort idiom: the
// map range only appends into slices, and every such slice is passed to a
// sort/slices call later in the same enclosing block, so the map's
// iteration order never reaches the encoder.
func sortedAfterLoop(pass *lintcore.Pass, root ast.Node, rng *ast.RangeStmt) bool {
	// A loop that encodes or sends directly keeps the report regardless of
	// what else it appends.
	if bodyFeedsEncoding(pass, rng.Body) {
		return false
	}
	targets := appendTargets(pass.TypesInfo, rng.Body)
	if len(targets) == 0 {
		return false
	}
	sorted := map[types.Object]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, st := range blk.List {
			if st != ast.Stmt(rng) {
				continue
			}
			for _, later := range blk.List[i+1:] {
				markSortedTargets(pass.TypesInfo, later, targets, sorted)
			}
		}
		return true
	})
	for obj := range targets {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// appendTargets collects the variables the loop body appends into.
func appendTargets(info *types.Info, body ast.Node) map[types.Object]bool {
	targets := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				targets[obj] = true
			}
		}
		return true
	})
	return targets
}

// markSortedTargets records which target slices the statement hands to a
// sort or slices package call.
func markSortedTargets(info *types.Info, st ast.Stmt, targets, sorted map[types.Object]bool) {
	ast.Inspect(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := lintcore.CalleeObject(info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok {
					if o := info.Uses[id]; o != nil && targets[o] {
						sorted[o] = true
					}
				}
				return true
			})
		}
		return true
	})
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Map)
	return ok
}
