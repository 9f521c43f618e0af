// Command tracedump inspects trace files written by oo7gen: summary
// statistics, phase boundaries, event listing, and full validation.
//
// Usage:
//
//	tracedump [-stats] [-phases] [-events] [-validate] [-n 20] trace.odbt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"odbgc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		stats    = fs.Bool("stats", true, "print summary statistics")
		phases   = fs.Bool("phases", false, "print phase boundaries")
		events   = fs.Bool("events", false, "print events")
		validate = fs.Bool("validate", false, "replay and validate the trace")
		limit    = fs.Int("n", 0, "with -events, print only the first N events (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracedump [flags] trace.odbt")
	}
	if *limit < 0 {
		return fmt.Errorf("-n must be >= 0 (got %d)", *limit)
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()

	tr, err := trace.ReadAll(f)
	if err != nil {
		return err
	}

	if *stats {
		s := trace.ComputeStats(tr)
		fmt.Fprintf(stdout, "events:            %d\n", s.Events)
		fmt.Fprintf(stdout, "creates:           %d (%d bytes allocated)\n", s.Creates, s.CreatedBytes)
		fmt.Fprintf(stdout, "accesses:          %d\n", s.Accesses)
		fmt.Fprintf(stdout, "updates:           %d\n", s.Updates)
		fmt.Fprintf(stdout, "overwrites:        %d (+%d init stores)\n", s.Overwrites, s.InitStores)
		fmt.Fprintf(stdout, "idle ticks:        %d\n", s.IdleTicks)
		fmt.Fprintf(stdout, "garbage:           %d objects, %d bytes\n", s.GarbageObjects, s.GarbageBytes)
		fmt.Fprintf(stdout, "garbage/overwrite: %.1f bytes\n", s.BytesPerOverwrite)
		fmt.Fprintf(stdout, "phases:            %v\n", s.Phases)
	}

	if *phases {
		for i := range tr.Events {
			if e := &tr.Events[i]; e.Kind == trace.KindPhase {
				fmt.Fprintf(stdout, "event %8d: phase %s\n", i, e.Label)
			}
		}
	}

	if *events {
		n := len(tr.Events)
		if *limit > 0 && *limit < n {
			n = *limit
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(stdout, "%8d  %s\n", i, tr.Events[i].String())
		}
	}

	if *validate {
		if err := trace.Validate(tr); err != nil {
			return fmt.Errorf("invalid trace: %w", err)
		}
		fmt.Fprintln(stdout, "trace is valid")
	}
	return nil
}
