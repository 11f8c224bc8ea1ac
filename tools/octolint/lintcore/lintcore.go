// Package lintcore is a self-contained analysis framework shaped after
// golang.org/x/tools/go/analysis, built on the standard library only.
//
// The repository deliberately has no module dependencies, so the real
// go/analysis packages (and their multichecker/unitchecker drivers) are not
// importable here. lintcore reimplements the slice octolint needs: an
// Analyzer with a Run(*Pass) hook over a typechecked package, diagnostics
// with positions, the `//octolint:allow <analyzer> <reason>` escape pragma,
// and (in unitchecker.go) the `go vet -vettool` driver protocol, so each
// pass reads like an x/tools pass and the binary plugs into `go vet`
// unchanged. If golang.org/x/tools ever becomes vendorable, passes can be
// ported mechanically: the Pass surface is a subset of analysis.Pass.
package lintcore

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, selection flags, and
	// allow pragmas. Lowercase, no spaces.
	Name string
	// Doc is a one-line description (shown by -flags and in usage).
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// knownAnalyzers records every analyzer name linked into the process, so
// pragma validation can tell a typo from a deliberately selected subset:
// an //octolint:allow naming an analyzer that exists but is not running
// this invocation must stay silent, while a name that exists nowhere must
// fail loudly.
var knownAnalyzers = map[string]bool{}

// New registers the analyzer's name and returns it. Every pass package
// constructs its Analyzer through New at package init.
func New(a *Analyzer) *Analyzer {
	knownAnalyzers[a.Name] = true
	return a
}

// KnownAnalyzer reports whether name belongs to any analyzer linked into
// this binary.
func KnownAnalyzer(name string) bool { return knownAnalyzers[name] }

// Pass carries one typechecked package through an analyzer. It is a subset
// of golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package's source directory on disk, used by passes that
	// read repository files (anonleak's live sensitive-key list).
	Dir string
	// DocRoot overrides repository-root discovery for passes that read
	// repo-level files. Empty means "walk up from Dir to go.mod". Tests
	// point it at a fixture tree.
	DocRoot string

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Posn:     p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file is a _test.go file. Passes that
// guard runtime invariants (determinism, anonleak)
// skip test files.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Finding is one reported diagnostic.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Posn, f.Message, f.Analyzer)
}

// pragmaPrefix introduces an escape pragma comment.
const pragmaPrefix = "//octolint:allow"

// pragma is one parsed //octolint:allow comment. Its reason must be there
// but is for the reader only.
type pragma struct {
	analyzer string
	posn     token.Position
}

// parsePragmas extracts allow pragmas from all comments in the files.
// Malformed pragmas (no analyzer, no reason, or an analyzer name unknown
// to the whole binary) are themselves findings, attributed to the
// "octolint" pseudo-analyzer — a typo in a suppression must never
// silently suppress nothing while appearing to work.
func parsePragmas(fset *token.FileSet, files []*ast.File) (out []pragma, bad []Finding) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, pragmaPrefix) {
					continue
				}
				posn := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, pragmaPrefix))
				var problem string
				switch {
				case len(fields) == 0:
					problem = "malformed pragma: want //octolint:allow <analyzer> <reason>"
				case !KnownAnalyzer(fields[0]):
					problem = fmt.Sprintf("pragma names unknown analyzer %q (known: %s)", fields[0], knownNames())
				case len(fields) < 2:
					problem = fmt.Sprintf("pragma for %q has no reason; a suppression must say why", fields[0])
				default:
					out = append(out, pragma{analyzer: fields[0], posn: posn})
					continue
				}
				bad = append(bad, Finding{Analyzer: "octolint", Posn: posn, Message: problem})
			}
		}
	}
	return out, bad
}

func knownNames() string {
	return strings.Join(slices.Sorted(maps.Keys(knownAnalyzers)), ", ")
}

// suppressed reports whether a pragma covers the finding: same file, same
// analyzer, on the finding's line or the line directly above it (the
// pragma on its own line annotating the statement below).
func suppressed(f Finding, pragmas []pragma) bool {
	for _, p := range pragmas {
		if p.analyzer == f.Analyzer && p.posn.Filename == f.Posn.Filename &&
			(p.posn.Line == f.Posn.Line || p.posn.Line == f.Posn.Line-1) {
			return true
		}
	}
	return false
}

// RunPackage runs the analyzers over one typechecked package and returns
// the findings that survive pragma suppression, sorted by position.
// Pragma validation errors are always included — they are not
// suppressible.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, dir, docRoot string, analyzers []*Analyzer) ([]Finding, error) {
	pragmas, bad := parsePragmas(fset, files)
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Dir:       dir,
			DocRoot:   docRoot,
			report: func(f Finding) {
				findings = append(findings, f)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	kept := bad
	for _, f := range findings {
		if !suppressed(f, pragmas) {
			kept = append(kept, f)
		}
	}
	slices.SortFunc(kept, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Posn.Filename, b.Posn.Filename), cmp.Compare(a.Posn.Line, b.Posn.Line),
			strings.Compare(a.Message, b.Message))
	})
	return kept, nil
}

// NewTypesInfo returns a fully populated types.Info for a package check.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
