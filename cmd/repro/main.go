// Command repro regenerates every table and figure of the paper's
// evaluation section from this repository's implementations.
//
//	repro -exp all            # run everything
//	repro -exp fig6           # one experiment
//	repro -exp fig2 -maps out # also dump PGM temperature maps
//	repro -exp table1 -csv out
//
// Science experiments (fig2, fig4) run the real pipeline on the
// synthetic-ERA5 substitute at laptop scale; performance experiments
// (fig5..fig8, table1) evaluate the calibrated machine model at the
// paper's full scale; each table's notes quote the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"exaclim/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: fig1|fig2|fig4|fig5|fig6|fig7|fig8|table1|storage|runtime|accuracy|energy|extremes|all")
	csvDir := flag.String("csv", "", "directory to write CSV files (optional)")
	mapDir := flag.String("maps", "", "directory to write PGM maps for fig2 (optional)")
	flag.Parse()

	if *mapDir != "" {
		if err := os.MkdirAll(*mapDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	type gen func() (experiments.Table, error)
	wrap := func(t experiments.Table) gen {
		return func() (experiments.Table, error) { return t, nil }
	}
	hourly := experiments.DefaultHourly()
	hourly.MapDir = *mapDir
	daily := experiments.DefaultDaily()

	all := []struct {
		id  string
		run gen
	}{
		{"fig1", func() (experiments.Table, error) { return experiments.Fig1(), nil }},
		{"fig2", func() (experiments.Table, error) { return experiments.Fig2(hourly) }},
		{"fig4", func() (experiments.Table, error) { return experiments.Fig4(daily) }},
		{"fig5", wrap(experiments.Fig5())},
		{"fig6", wrap(experiments.Fig6())},
		{"fig7", wrap(experiments.Fig7())},
		{"fig8", wrap(experiments.Fig8())},
		{"table1", wrap(experiments.Table1())},
		{"storage", wrap(experiments.Storage())},
		{"runtime", func() (experiments.Table, error) { return experiments.Runtime(), nil }},
		{"accuracy", func() (experiments.Table, error) { return experiments.MixedPrecisionAccuracy(1), nil }},
		{"energy", wrap(experiments.Energy())},
		{"extremes", func() (experiments.Table, error) { return experiments.Extremes(daily) }},
	}

	ran := 0
	for _, e := range all {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		t, err := e.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.id, err))
		}
		fmt.Println(t.String())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, t.ID+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
		ran++
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
