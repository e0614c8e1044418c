package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The unitchecker protocol spoken by `go vet -vettool=<tool>`.
//
// The go command probes the tool twice — `tool -V=full` for a version
// line it folds into the build cache key, and `tool -flags` for a JSON
// description of the flags it accepts — then invokes it once per package
// with a single argument, the path to a JSON config file describing the
// type-checked unit: file lists, the import map, and the export-data
// file for every dependency.  The tool typechecks the unit from source
// against those export files, runs its analyzers, prints diagnostics to
// stderr, and signals findings with exit code 2.  Units marked VetxOnly
// are dependencies loaded only for their facts; facevet's analyzers are
// package-local, so those exit immediately after touching the output
// file the go command expects.

// vetConfig mirrors the JSON config written by the go command for each
// vet unit (cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standalone                bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool built from a set of analyzers.
// It dispatches on the command line: the go command's -V/-flags probes or
// a single *.cfg argument (one vet unit).  Anything else prints the usage
// and exits 2.  It does not return.
func Main(analyzers []*Analyzer) {
	progname := filepath.Base(os.Args[0])
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: go vet -vettool=$(which %s) [-<analyzer>...] ./...\n\nanalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	vFlag := fs.String("V", "", "print version and exit (the go command probes with -V=full)")
	flagsFlag := fs.Bool("flags", false, "print the analyzer flags in JSON and exit")
	selected := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		selected[a.Name] = fs.Bool(a.Name, false, "run only the named analyzers: "+a.Doc)
	}
	fs.Parse(os.Args[1:])

	switch {
	case *vFlag != "":
		printVersion(progname, *vFlag)
		os.Exit(0)
	case *flagsFlag:
		printFlags(analyzers)
		os.Exit(0)
	}

	enabled := analyzers
	var picked []*Analyzer
	for _, a := range analyzers {
		if *selected[a.Name] {
			picked = append(picked, a)
		}
	}
	if picked != nil {
		enabled = picked
	}

	args := fs.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fs.Usage()
		os.Exit(2)
	}
	os.Exit(runUnit(args[0], enabled))
}

// printVersion emits the version line the go command hashes into its
// build cache key.  The format mirrors x/tools' unitchecker: name,
// "version devel", and a buildID derived from the tool binary itself so
// rebuilding the tool invalidates cached vet results.
func printVersion(progname, mode string) {
	if mode != "full" {
		fmt.Printf("%s version devel\n", progname)
		return
	}
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", progname, h.Sum(nil))
}

// printFlags describes the tool's flags to the go command, which uses
// the list to validate pass-through vet flags.
func printFlags(analyzers []*Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	for _, a := range analyzers {
		out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	os.Stdout.Write(data)
}

// runUnit analyzes one vet unit described by a go-command config file
// and returns the process exit code.
func runUnit(cfgFile string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The go command expects the output file to exist even when there is
	// nothing to say; an empty file records "no facts".
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	diags, err := typecheckAndRun(fset, files, cfg.ImportPath, cfg.GoVersion,
		importer.ForCompiler(fset, compiler, lookup), analyzers)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return report(fset, diags)
}

func parseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typecheckAndRun checks the parsed files as package path against imp
// and runs the analyzers over the resulting unit.
func typecheckAndRun(fset *token.FileSet, files []*ast.File, path, goVersion string, imp types.Importer, analyzers []*Analyzer) ([]Diagnostic, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp, GoVersion: goVersion}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %w", path, err)
	}
	unit := &Unit{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	return Check(unit, analyzers)
}

// report prints the diagnostics in the canonical file:line:col form and
// returns the exit code go vet expects: 2 when there are findings.
func report(fset *token.FileSet, diags []Diagnostic) int {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [facevet/%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
