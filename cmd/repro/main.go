// Command repro regenerates every table and figure of the paper's
// evaluation and prints paper-vs-measured comparisons. It is the
// EXPERIMENTS.md generator:
//
//	repro             # run everything
//	repro -list       # list experiment IDs
//	repro -run fig2   # run one experiment
//	repro -markdown   # wrap output in fenced blocks for EXPERIMENTS.md
//	repro -svg DIR    # also render the paper's figures as SVG files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dsmtherm/internal/exp"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	run := flag.String("run", "", "run a single experiment by ID")
	markdown := flag.Bool("markdown", false, "emit markdown sections")
	svgDir := flag.String("svg", "", "directory to write the figure SVGs into")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %-16s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	experiments := exp.All()
	if *run != "" {
		e, err := exp.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		experiments = []exp.Experiment{e}
	}

	failed := 0
	for _, e := range experiments {
		t, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		if *markdown {
			fmt.Printf("## %s (%s)\n\n```\n%s```\n\n", e.Paper, e.ID, t.Format())
		} else {
			fmt.Println(t.Format())
		}
	}
	if *svgDir != "" {
		if err := writeFigures(*svgDir); err != nil {
			fmt.Fprintln(os.Stderr, "repro: figures:", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeFigures renders every figure experiment as an SVG file in dir.
func writeFigures(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	figs, err := exp.Figures()
	if err != nil {
		return err
	}
	for _, f := range figs {
		svg, err := f.Plot.SVG()
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		path := filepath.Join(dir, f.Name+".svg")
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}
