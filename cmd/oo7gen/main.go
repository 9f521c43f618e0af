// Command oo7gen generates OO7 benchmark application traces: the four-phase
// workload (GenDB, Reorg1, Traverse, Reorg2) the paper evaluates on, or the
// non-OO7 churn workload with -workload churn.
//
// Usage:
//
//	oo7gen -o trace.odbt [-conn 3] [-seed 1] [-phases GenDB,Reorg1,Traverse,Reorg2]
//	       [-validate] [-small] [-workload oo7|churn]
//
// The output is the binary trace format; tracedump prints it as text.
// -validate replays the trace and cross-checks the oracle garbage
// annotations against true reachability before writing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"odbgc/internal/oo7"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "oo7gen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("oo7gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "", "output file (required; use - for stdout)")
		conn     = fs.Int("conn", 3, "NumConnPerAtomic: connectivity between atomic parts (3, 6 or 9)")
		seed     = fs.Int64("seed", 1, "random seed")
		phases   = fs.String("phases", strings.Join(oo7.Phases, ","), "comma-separated OO7 phases to generate, in order")
		validate = fs.Bool("validate", false, "validate the trace before writing")
		small    = fs.Bool("small", false, "use the original OO7 Small parameters (500 composites, 7 levels) instead of Small'")
		docProb  = fs.Float64("docreplace", -1, "probability a reorg replaces a composite's document (-1 keeps the default)")
		idle     = fs.Int("idle", 0, "quiescence ticks between phases (for opportunistic policies)")
		kind     = fs.String("workload", "oo7", "workload family: oo7 or churn")
		quiet    = fs.Bool("q", false, "suppress the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		fs.Usage()
		return fmt.Errorf("-o is required")
	}

	var tr *trace.Trace
	switch *kind {
	case "oo7":
		var err error
		tr, err = generateOO7(*conn, *seed, *phases, *small, *docProb, *idle)
		if err != nil {
			return err
		}
	case "churn":
		var err error
		tr, err = workload.Churn(workload.DefaultChurn(), *seed)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q (have oo7, churn)", *kind)
	}

	if *validate {
		if err := trace.Validate(tr); err != nil {
			return fmt.Errorf("trace failed validation: %w", err)
		}
	}

	// A close failure on the output file can mean unflushed trace bytes, so
	// it fails the run rather than being deferred away.
	var w io.Writer = stdout
	closeOut := func() error { return nil }
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		closeOut = f.Close
		w = f
	}
	if err := trace.WriteAll(w, tr); err != nil {
		_ = closeOut()
		return err
	}
	if err := closeOut(); err != nil {
		return fmt.Errorf("writing %s: %w", *out, err)
	}

	if !*quiet {
		s := trace.ComputeStats(tr)
		fmt.Fprintf(stderr,
			"oo7gen: %d events (%d creates, %d accesses, %d overwrites, %d init stores)\n",
			s.Events, s.Creates, s.Accesses, s.Overwrites, s.InitStores)
		fmt.Fprintf(stderr, "oo7gen: %d garbage objects, %d bytes (%.1f B/overwrite), phases %v\n",
			s.GarbageObjects, s.GarbageBytes, s.BytesPerOverwrite, s.Phases)
	}
	return nil
}

func generateOO7(conn int, seed int64, phases string, small bool, docProb float64, idle int) (*trace.Trace, error) {
	params := oo7.SmallPrime(conn)
	if small {
		params = oo7.Small(conn)
	}
	if docProb >= 0 {
		params.DocReplaceProb = docProb
	}
	params.IdleBetweenPhases = idle

	g, err := oo7.NewGenerator(params, seed)
	if err != nil {
		return nil, err
	}
	for _, ph := range strings.Split(phases, ",") {
		switch strings.TrimSpace(ph) {
		case oo7.PhaseGenDB:
			err = g.GenDB()
		case oo7.PhaseReorg1:
			err = g.Reorg1()
		case oo7.PhaseTraverse:
			err = g.Traverse()
		case oo7.PhaseReorg2:
			err = g.Reorg2()
		case "":
			continue
		default:
			return nil, fmt.Errorf("unknown phase %q (have %v)", ph, oo7.Phases)
		}
		if err != nil {
			return nil, err
		}
	}
	return g.Trace(), nil
}
