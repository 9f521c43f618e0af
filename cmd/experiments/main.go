// Command experiments regenerates the paper's tables and figures: the same
// rows and series, produced by the reproduction's simulator. Text tables go
// to stdout; -plot also renders ASCII charts; -csvdir writes each figure's
// series as CSV files.
//
// Usage:
//
//	experiments                      # run everything with paper methodology
//	experiments -run fig4,fig5       # a subset
//	experiments -runs 3              # fewer seeded runs per data point
//	experiments -plot                # also draw each figure
//	experiments -csvdir out/         # also write CSV series
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"odbgc/internal/experiments"
	"odbgc/internal/metrics"
	"odbgc/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the CLI under ctx; cancelling it (main wires SIGINT and
// SIGTERM) stops the experiment in flight at its runs' next event boundaries.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runList = fs.String("run", "", "comma-separated experiments (default: all); have: "+strings.Join(experiments.Names(), ","))
		runs    = fs.Int("runs", 10, "seeded runs per data point")
		conn    = fs.Int("conn", 3, "connectivity for the main experiments")
		seed    = fs.Int64("seed", 1, "base seed")
		csvdir  = fs.String("csvdir", "", "directory to write per-figure CSV series into")
		plots   = fs.Bool("plot", false, "render each figure as an ASCII chart")
		evDir   = fs.String("events-dir", "", "write per-run JSONL event logs under this directory (see cmd/obsdump)")
		manDir  = fs.String("manifest-dir", "", "write a provenance manifest per experiment into this directory")
		par     = fs.Int("parallel", 0, "max concurrent runs per batch (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be >= 1 (got %d)", *runs)
	}
	if *conn < 1 {
		return fmt.Errorf("-conn must be >= 1 (got %d)", *conn)
	}
	if *seed < 1 {
		return fmt.Errorf("-seed must be >= 1 (got %d)", *seed)
	}
	if *par < 0 {
		return fmt.Errorf("-parallel must be >= 0 (got %d)", *par)
	}

	names := experiments.Names()
	if *runList != "" {
		names = nil
		for _, n := range strings.Split(*runList, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		for _, n := range names {
			if !slices.Contains(experiments.Names(), n) {
				return fmt.Errorf("-run: unknown experiment %q (have %s)", n, strings.Join(experiments.Names(), ","))
			}
		}
	}

	runner := experiments.NewRunner(experiments.Options{
		Connectivity: *conn,
		Runs:         *runs,
		SeedBase:     *seed,
		EventsDir:    *evDir,
		Parallel:     *par,
	})
	for _, name := range names {
		start := time.Now()
		rep, err := runner.RunContext(ctx, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout, rep)
		if *plots {
			if chart := rep.Plot(); chart != "" {
				fmt.Fprintln(stdout, chart)
			}
		}
		fmt.Fprintf(stdout, "(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))

		var csvPath string
		if *csvdir != "" && len(rep.Series) > 0 {
			if err := os.MkdirAll(*csvdir, 0o755); err != nil {
				return err
			}
			csvPath = filepath.Join(*csvdir, rep.ID+".csv")
			csv := metrics.CSV(rep.XName, rep.Series...)
			if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", csvPath)
		}

		if *manDir != "" {
			if err := os.MkdirAll(*manDir, 0o755); err != nil {
				return err
			}
			m := &obs.Manifest{
				Tool:   "experiments",
				Config: obs.FlagKVs(fs),
				Seed:   *seed,
			}
			if csvPath != "" {
				if err := m.AddArtifact(csvPath); err != nil {
					return err
				}
			}
			path := filepath.Join(*manDir, name+".manifest.json")
			if err := m.Write(path); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
		}
	}
	return nil
}
