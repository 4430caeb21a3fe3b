// Command dlrmperf-lint runs the repository's invariant lint suite
// (internal/analysis: hotpath, deterministic, ctxflow,
// and unlinked when -linked names a `make linked` listing) over the
// given package patterns and exits non-zero on any finding.
//
// Usage:
//
//	dlrmperf-lint [-linked FILE] [packages]   # defaults to ./...
//
// The analyzers' scopes are directives at the code they govern, not
// flags: a hot-path root or stop is the last line of a function's doc
// comment, and a deterministic or ctxflow package says so in its
// package doc comment.
//
//	//lint:hotpath root
//	//lint:hotpath stop <reason>
//	//lint:deterministic
//	//lint:ctxflow
//
// Suppress a finding with a justified escape-hatch comment on the
// offending line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// A //lint: directive of any other kind is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"dlrmperf/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	linkedPath := flag.String("linked", "", "`make linked` output; enables the unlinked analyzer")
	flag.Parse()

	if *list {
		for _, a := range analysis.All(map[string]bool{}) {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var linked map[string]bool
	if *linkedPath != "" {
		f, err := os.Open(*linkedPath)
		if err == nil {
			linked, err = analysis.ParseLinked(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dlrmperf-lint: %v\n", err)
			os.Exit(2)
		}
	}
	analyzers := analysis.All(linked)

	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlrmperf-lint: %v\n", err)
		os.Exit(2)
	}

	failed := false
	for _, pkg := range pkgs {
		findings, err := analysis.RunPackage(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dlrmperf-lint: %v\n", err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(f)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
