// Command octolint is the repository's project-specific static-analysis
// suite: two analyzers that mechanically enforce invariants the compiler
// cannot see — seeded-replay determinism and telemetry anonymity. See docs/STATIC_ANALYSIS.md for each invariant, the
// incident that motivated it, and the escape-pragma policy
// (//octolint:allow <analyzer> <reason>).
//
// The binary speaks the `go vet` vet-tool protocol (the same contract
// golang.org/x/tools/go/analysis/unitchecker implements), so the two
// equivalent invocations are:
//
//	go run ./tools/octolint ./...              # standalone driver
//	go vet -vettool=$(which octolint) ./...    # explicit vet integration
//
// Standalone mode re-executes itself through `go vet -vettool=<self>` —
// the go command does the package loading, export-data plumbing, and
// caching — and then runs a curated set of the toolchain's own vet passes
// (lostcancel, atomic, copylocks, loopclosure, unreachable,
// testinggoroutine). Two passes the issue tracker curates from x/tools —
// nilness and unusedwrite — need golang.org/x/tools/go/analysis itself
// and are gated until this module grows that dependency; the vettool
// protocol means bundling them later is mechanical.
//
// Analyzer selection follows vet convention: with no analyzer flags both
// run; naming any (-determinism, -anonleak, ...) runs only those.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"github.com/octopus-dht/octopus/tools/octolint/lintcore"
	"github.com/octopus-dht/octopus/tools/octolint/passes/anonleak"
	"github.com/octopus-dht/octopus/tools/octolint/passes/determinism"
)

// analyzers is the full suite, in documentation order.
var analyzers = []*lintcore.Analyzer{
	determinism.Analyzer,
	anonleak.Analyzer,
}

// curatedVetPasses are the toolchain-shipped go vet analyzers octolint
// runs alongside its own suite in standalone mode.
var curatedVetPasses = []string{
	"lostcancel", "atomic", "copylocks", "loopclosure", "unreachable", "testinggoroutine",
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	// Protocol handshakes from the go command come before flag parsing:
	// `octolint -V=full` and `octolint -flags`.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			lintcore.PrintVersion(os.Stdout)
			return 0
		case "-flags", "--flags":
			lintcore.PrintFlags(os.Stdout, analyzers)
			return 0
		}
	}

	fs := flag.NewFlagSet("octolint", flag.ContinueOnError)
	fs.Usage = usage(fs)
	selected := map[string]*bool{}
	for _, a := range analyzers {
		selected[a.Name] = fs.Bool(a.Name, false, a.Doc)
	}
	curated := fs.Bool("curated", true, "in standalone mode, also run the curated toolchain vet passes")
	docRoot := fs.String("docroot", "", "repository root override for doc cross-checks (default: walk up to go.mod)")
	fs.String("V", "", "version handshake (protocol use only)")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	active := analyzers
	var picked []*lintcore.Analyzer
	var pickedFlags []string
	for _, a := range analyzers {
		if *selected[a.Name] {
			picked = append(picked, a)
			pickedFlags = append(pickedFlags, "-"+a.Name)
		}
	}
	if len(picked) > 0 {
		active = picked
	}

	rest := fs.Args()
	// Vet-tool mode: the go command hands us a single vet.cfg path.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return lintcore.RunVetCfg(rest[0], *docRoot, active)
	}

	// Standalone driver: let `go vet` do package loading against this
	// very binary, then run the curated toolchain passes.
	pkgs := rest
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "octolint: locating own binary: %v\n", err)
		return 1
	}
	code := 0
	vetArgs := append([]string{"vet", "-vettool=" + exe}, pickedFlags...)
	if *docRoot != "" {
		vetArgs = append(vetArgs, "-docroot="+*docRoot)
	}
	if run("go", append(vetArgs, pkgs...)...) != nil {
		code = 2
	}
	if *curated {
		curArgs := []string{"vet"}
		for _, p := range curatedVetPasses {
			curArgs = append(curArgs, "-"+p)
		}
		if run("go", append(curArgs, pkgs...)...) != nil {
			code = 2
		}
	}
	if code == 0 {
		fmt.Printf("octolint: %d analyzers clean\n", len(active))
	}
	return code
}

func run(name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintf(fs.Output(), "usage: octolint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
}
