// Command mdfbench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated cluster and prints the data series.
//
// Usage:
//
//	mdfbench -exp fig7           # one experiment
//	mdfbench -exp all            # everything (slow)
//	mdfbench -exp fig9 -quick    # reduced sweep for a fast look
//	mdfbench -exp fig9 -csv      # machine-readable output
//	mdfbench -exp fig7 -cpuprofile cpu.out -memprofile mem.out  # host-time profiles
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"metadataflow/cmd/internal/prof"
	"metadataflow/internal/experiments"
)

func main() { os.Exit(bench()) }

// bench runs the selected experiments and returns the exit status.
func bench() int {
	var (
		exp   = flag.String("exp", "", "experiment id (table1, fig5..fig18) or 'all'")
		quick = flag.Bool("quick", false, "reduced workloads and sweeps")
		seeds = flag.Int("seeds", 3, "runs per data point (paper uses 3)")
		csv   = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		md    = flag.Bool("markdown", false, "emit a markdown table (for EXPERIMENTS.md)")
		jsonF = flag.Bool("json", false, "write each experiment's data as BENCH_<exp>.json (schema-stable, with seeds and min/avg/max per cell)")
		out   = flag.String("out", "", "also write each experiment's CSV into this directory")
		list  = flag.Bool("list", false, "list available experiments")
		pf    = prof.Register()
	)
	flag.Parse()
	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdfbench: %v\n", err)
		return 2
	}
	defer stopProf()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Description)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "mdfbench: -seeds must be at least 1 (got %d)\n", *seeds)
		return 2
	}

	// SIGINT/SIGTERM cancel the sweep between seeded runs: experiments that
	// already completed keep their flushed artifacts, the in-flight one is
	// abandoned without a partial file, and the process exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.Options{Seeds: *seeds, Quick: *quick, Ctx: ctx}
	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.Registry()
	} else {
		e, err := experiments.ByID(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdfbench: %v\nusage: mdfbench -exp <id> [-quick] [-seeds n] [-csv|-markdown] [-out dir] [-cpuprofile file] [-memprofile file]\nrun 'mdfbench -list' for the available experiment ids\n", err)
			return 2
		}
		selected = []experiments.Experiment{e}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			if errors.Is(err, experiments.ErrInterrupted) {
				return 130
			}
			return 1
		}
		if *out != "" {
			path := filepath.Join(*out, e.ID+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if *jsonF {
			// BENCH_<exp>.json lands next to the CSVs when -out is given,
			// otherwise in the working directory.
			data, err := tab.JSON(opts.SeedList())
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				return 1
			}
			path := fmt.Sprintf("BENCH_%s.json", e.ID)
			if *out != "" {
				path = filepath.Join(*out, path)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		switch {
		case *csv:
			fmt.Print(tab.CSV())
		case *md:
			fmt.Println(tab.Markdown())
		default:
			fmt.Print(tab.Format())
			fmt.Printf("(regenerated in %.1fs wall time)\n\n", time.Since(start).Seconds())
		}
	}
	return 0
}
