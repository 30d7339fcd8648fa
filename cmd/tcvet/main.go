// Command tcvet runs the project-invariant analyzer suite over the
// module tree and fails loudly when a hard-won contract regresses:
// layering behind pkg/tcq, drained-and-closed HTTP response bodies,
// the typed peer-error taxonomy, the tc_ metric catalog, the maps the
// row-form tables keep out, and the references each layer may make
// (the calls it has moved off, injected clocks in internal/cluster,
// the one leg path's call sites). See internal/analysis for the
// analyzers and the //tcvet:ignore suppression syntax.
//
// Exit status: 0 clean, 1 findings, 2 the tree could not be loaded or
// type-checked.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	root := flag.String("root", ".", "module root (or any directory under it)")
	flag.Parse()
	os.Exit(run(*root, os.Stdout, os.Stderr))
}

func run(root string, stdout, stderr io.Writer) int {
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "tcvet:", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(stderr, "tcvet:", err)
		return 2
	}
	catalog, err := analysis.MetricCatalogFromReadme(filepath.Join(loader.Root, "README.md"))
	if err != nil {
		// No README means no catalog to drift from; the naming rules
		// still apply.
		fmt.Fprintln(stderr, "tcvet: metric catalog unavailable, skipping documentation cross-check:", err)
		catalog = nil
	}

	loadFailures := 0
	for _, pkg := range pkgs {
		if err := loader.Check(pkg); err != nil {
			fmt.Fprintln(stderr, "tcvet:", err)
			loadFailures++
		}
	}

	diags := analysis.RunSuite(analysis.Suite(analysis.Options{MetricCatalog: catalog}), pkgs)
	for _, d := range diags {
		// Root-relative paths keep the output stable across checkouts
		// (and readable in CI artifacts).
		if rel, err := filepath.Rel(loader.Root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}

	switch {
	case loadFailures > 0:
		fmt.Fprintf(stderr, "tcvet: %d package(s) failed to load\n", loadFailures)
		return 2
	case len(diags) > 0:
		fmt.Fprintf(stderr, "tcvet: %d finding(s)\n", len(diags))
		return 1
	}
	fmt.Fprintf(stdout, "tcvet: ok (%d packages, %d analyzers)\n", len(pkgs), len(analysis.Suite(analysis.Options{})))
	return 0
}
