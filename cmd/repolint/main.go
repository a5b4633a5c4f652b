// Command repolint runs the repository's custom static-analysis suite — the
// determinism & concurrency contract — over Go packages, using only the
// standard library's go/parser, go/ast and go/types.
//
// Usage:
//
//	repolint [-json] [-config repolint.json] [-list] [packages...]
//
// Packages default to ./... (testdata excluded, like the go tool; name a
// testdata path explicitly to lint fixtures). The configuration is -config,
// or else repolint.json at the module root; with neither, repolint exits 2.
// Exit status: 0 clean, 1 findings, 2 usage, load or missing-config error.
//
// Rules: detmap, wallclock, seedrand, bannedimport, locksafe — see the
// "Static analysis contract" section of DESIGN.md. Suppress a single finding
// with a `//lint:ignore <rule> <reason>` comment on, or directly above, the
// offending line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"securepki/internal/gostatic"
	"securepki/internal/gostatic/rules"
)

func main() {
	var (
		asJSON     = flag.Bool("json", false, "emit findings as a JSON array")
		configPath = flag.String("config", "", "path to repolint.json (default: <module root>/repolint.json)")
		list       = flag.Bool("list", false, "list rules and exit")
	)
	flag.Parse()

	if *list {
		for _, an := range rules.Default() {
			fmt.Printf("%-14s %s\n", an.Name, an.Doc)
		}
		return
	}

	loader, err := gostatic.NewLoader(".")
	if err != nil {
		fatal(err)
	}

	path := *configPath
	if path == "" {
		path = filepath.Join(loader.ModuleRoot, "repolint.json")
	}
	cfg, err := gostatic.LoadConfig(path)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("no packages matched %v", patterns))
	}

	driver := &gostatic.Driver{Analyzers: rules.Default(), Config: cfg}
	findings := driver.Run(loader, pkgs)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []gostatic.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "repolint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repolint:", err)
	os.Exit(2)
}
