// Command piano-experiments regenerates every table and figure of the
// paper's evaluation (§VI), plus the ablation battery for the design
// choices measured in internal/experiments/ablation.go.
//
// Usage:
//
//	piano-experiments -experiment all            # everything, paper trial counts
//	piano-experiments -experiment fig1 -trials 5 # one artifact, custom trials
//
// Experiments: fig1, fig2a, fig2b, table1, table2, wall, security,
// efficiency, ablations, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/acoustic-auth/piano/internal/experiments"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "piano-experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("piano-experiments", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "which artifact to regenerate (fig1|fig2a|fig2b|table1|table2|wall|security|efficiency|ablations|all)")
	trials := fs.Int("trials", 0, "trials per measurement point (0 = paper defaults)")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{Trials: *trials, Seed: *seed}

	runners := map[string]func() error{
		"fig1": func() error {
			res, err := experiments.RunFig1(opts)
			if err != nil {
				return err
			}
			experiments.FprintFig1(w, res)
			return nil
		},
		"fig2a": func() error {
			res, err := experiments.RunFig2a(opts)
			if err != nil {
				return err
			}
			experiments.FprintFig2a(w, res)
			return nil
		},
		"fig2b": func() error {
			res, err := experiments.RunFig2b(opts)
			if err != nil {
				return err
			}
			experiments.FprintFig2b(w, res)
			return nil
		},
		"tables": func() error {
			res, err := experiments.RunTables(opts)
			if err != nil {
				return err
			}
			experiments.FprintTables(w, res)
			return nil
		},
		"wall": func() error {
			res, err := experiments.RunWall(opts)
			if err != nil {
				return err
			}
			experiments.FprintWall(w, res)
			return nil
		},
		"security": func() error {
			res, err := experiments.RunSecurity(opts)
			if err != nil {
				return err
			}
			experiments.FprintSecurity(w, res)
			return nil
		},
		"efficiency": func() error {
			res, err := experiments.RunEfficiency(opts)
			if err != nil {
				return err
			}
			experiments.FprintEfficiency(w, res)
			return nil
		},
		"ablations": func() error {
			res, err := experiments.RunAllAblations(opts)
			if err != nil {
				return err
			}
			for _, r := range res {
				experiments.FprintAblation(w, r)
			}
			return nil
		},
	}
	runners["table1"] = runners["tables"]
	runners["table2"] = runners["tables"]

	if *experiment == "all" {
		for _, name := range []string{"fig1", "fig2a", "fig2b", "tables", "wall", "security", "efficiency", "ablations"} {
			fmt.Fprintf(w, "==== %s ====\n", name)
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	r, ok := runners[*experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return r()
}
