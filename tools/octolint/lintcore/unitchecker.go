package lintcore

// The `go vet -vettool` driver protocol, reimplemented on the standard
// library (mirroring golang.org/x/tools/go/analysis/unitchecker, which is
// not importable in this dependency-free module).
//
// The go command talks to a vet tool in three ways:
//
//  1. `tool -V=full` — print an identifying version line the build system
//     hashes into its action cache key.
//  2. `tool -flags` — print a JSON description of the tool's flags so
//     `go vet` can validate command-line analyzer selections.
//  3. `tool [flags] $WORK/<pkg>/vet.cfg` — analyze one package. The cfg
//     file carries the package's source files, import map, and the export
//     data of every dependency; diagnostics go to stderr, a facts file
//     (vetx) is written to cfg.VetxOutput, and a nonzero exit marks
//     findings.
//
// octolint has no cross-package facts, so dependency invocations
// (VetxOnly) write an empty facts file and exit immediately — analysis
// runs only on the packages named on the `go vet` command line.

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// VetConfig mirrors the JSON schema of the vet.cfg files the go command
// writes for vet tools (cmd/go/internal/work.vetConfig).
type VetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// PrintVersion implements the -V=full handshake: a stable line keyed to
// the binary's own content hash, so the go command's action cache
// invalidates when the tool changes.
func PrintVersion(w io.Writer) error {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	exe, err := os.Executable()
	if err == nil {
		if f, ferr := os.Open(exe); ferr == nil {
			_, err = io.Copy(h, f)
			f.Close()
		} else {
			err = ferr
		}
	}
	if err != nil {
		// Degrade to a constant ID; the cache is merely less precise.
		fmt.Fprintf(w, "%s version devel octolint buildID=unknown\n", name)
		return nil
	}
	fmt.Fprintf(w, "%s version devel octolint buildID=%x\n", name, h.Sum(nil)[:16])
	return nil
}

// vetFlagDef is one entry of the -flags JSON handshake
// (cmd/go/internal/vet parses exactly these fields).
type vetFlagDef struct {
	Name  string
	Bool  bool
	Usage string
}

// PrintFlags implements the -flags handshake for the given analyzers:
// one boolean selection flag per analyzer, vet-style.
func PrintFlags(w io.Writer, analyzers []*Analyzer) error {
	defs := make([]vetFlagDef, 0, len(analyzers))
	for _, a := range analyzers {
		defs = append(defs, vetFlagDef{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	data, err := json.Marshal(defs)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// RunVetCfg analyzes the package described by the vet.cfg file at
// cfgPath and prints surviving findings to stderr. The returned exit
// code follows vet-tool convention: 0 clean, 1 internal error, 2
// findings.
func RunVetCfg(cfgPath, docRoot string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "octolint: reading %s: %v\n", cfgPath, err)
		return 1
	}
	var cfg VetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "octolint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// Dependency invocation: octolint keeps no facts, so there is nothing
	// to compute — just satisfy the protocol by producing the facts file.
	if cfg.VetxOnly {
		if err := writeVetx(&cfg); err != nil {
			fmt.Fprintf(os.Stderr, "octolint: %v\n", err)
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	files, pkg, info, err := checkTypes(fset, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx(&cfg)
			return 0
		}
		fmt.Fprintf(os.Stderr, "octolint: %v\n", err)
		return 1
	}

	findings, err := RunPackage(fset, files, pkg, info, cfg.Dir, docRoot, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "octolint: %v\n", err)
		return 1
	}
	if err := writeVetx(&cfg); err != nil {
		fmt.Fprintf(os.Stderr, "octolint: %v\n", err)
		return 1
	}
	if len(findings) == 0 {
		return 0
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	return 2
}

// checkTypes parses the package's files and typechecks them using the
// export data the go command handed us for every dependency.
func checkTypes(fset *token.FileSet, cfg *VetConfig) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	// The lookup func receives canonical (post-ImportMap) package paths
	// and must return that package's export data stream.
	gcImporter := importer.ForCompiler(fset, cmp.Or(cfg.Compiler, "gc"), func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := mapImporter{cfg: cfg, under: gcImporter}

	var firstErr error
	tc := &types.Config{
		Importer:  imp,
		GoVersion: goVersionFor(cfg),
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := NewTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err = cmp.Or(firstErr, err); err != nil {
		return nil, nil, nil, fmt.Errorf("typecheck %s: %w", cfg.ImportPath, err)
	}
	return files, pkg, info, nil
}

// goVersionFor sanitizes cfg.GoVersion for types.Config: the go command
// may hand over entries like "go1.24.0" or module-style versions;
// go/types wants "go1.N" (or empty for "latest").
func goVersionFor(cfg *VetConfig) string {
	if !strings.HasPrefix(cfg.GoVersion, "go1.") {
		return ""
	}
	return strings.Join(strings.SplitN(cfg.GoVersion, ".", 3)[:2], ".")
}

// mapImporter applies cfg.ImportMap before delegating to the export-data
// importer, mirroring unitchecker's importer chain.
type mapImporter struct {
	cfg   *VetConfig
	under types.Importer
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := m.cfg.ImportMap[path]; ok {
		path = mapped
	}
	return m.under.Import(path)
}

// writeVetx produces the (empty — octolint has no facts) serialized facts
// file the go command expects at cfg.VetxOutput.
func writeVetx(cfg *VetConfig) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
		return fmt.Errorf("writing facts file: %w", err)
	}
	return nil
}
