// Package linttest runs octolint analyzers over golden fixture packages,
// mirroring golang.org/x/tools/go/analysis/analysistest (not importable in
// this dependency-free module).
//
// A fixture directory holds packages under src/<importpath>/*.go. Expected
// findings are declared in the source with trailing comments:
//
//	rand.Seed(1) // want "global math/rand"
//
// The quoted text is a regular expression matched against the finding
// message reported on that line; several `// want "a" "b"` patterns may
// share a line. Fixture packages may import each other by their src/
// paths (so a stub `internal/obs` can stand in for the real one) and may
// import the real standard library, which is typechecked from GOROOT
// source — no export data or network needed.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/octopus-dht/octopus/tools/octolint/lintcore"
)

// The file set and GOROOT-source importer are process-global: the source
// importer caches each typechecked stdlib package, so every Run after the
// first reuses (for example) time, fmt, and sync/atomic for free.
var (
	mu     sync.Mutex
	fset   = token.NewFileSet()
	stdImp types.ImporterFrom
)

func stdImporter() types.ImporterFrom {
	if stdImp == nil {
		stdImp = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	}
	return stdImp
}

// Run analyzes the fixture package at dir/src/<pkgPath> with the analyzer
// and diffs reported findings against the // want expectations.
func Run(t *testing.T, dir string, a *lintcore.Analyzer, pkgPath string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()

	ld := &loader{root: filepath.Join(dir, "src"), pkgs: map[string]*loaded{}}
	target, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}

	findings, err := lintcore.RunPackage(fset, target.files, target.pkg, target.info,
		filepath.Join(ld.root, pkgPath), "", []*lintcore.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, target.files)
	matchFindings(t, findings, wants)
}

// loaded is one typechecked fixture package.
type loaded struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader typechecks fixture packages on demand, consulting the fixture
// src/ tree first and GOROOT source for everything else.
type loader struct {
	root string
	pkgs map[string]*loaded
}

func (l *loader) load(path string) (*loaded, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var firstErr error
	tc := &types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if p == "unsafe" {
				return types.Unsafe, nil
			}
			if _, err := os.Stat(filepath.Join(l.root, p)); err == nil {
				sub, err := l.load(p)
				if err != nil {
					return nil, err
				}
				return sub.pkg, nil
			}
			return stdImporter().ImportFrom(p, l.root, 0)
		}),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := lintcore.NewTypesInfo()
	pkg, err := tc.Check(path, fset, files, info)
	if firstErr != nil {
		err = firstErr
	}
	if err != nil {
		return nil, err
	}
	p := &loaded{files: files, pkg: pkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// want is one expectation: a message pattern anchored to a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func collectWants(t *testing.T, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", posn, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: want pattern %q: %v", posn, pat, err)
					}
					wants = append(wants, &want{file: posn.Filename, line: posn.Line, re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

func matchFindings(t *testing.T, findings []lintcore.Finding, wants []*want) {
	t.Helper()
	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if w.matched || w.file != f.Posn.Filename || w.line != f.Posn.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
