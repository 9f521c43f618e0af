// Command gcsim runs one garbage-collection simulation over a trace file
// with a chosen collection-rate policy, printing a per-collection log and a
// run summary.
//
// Usage:
//
//	gcsim -policy saio -frac 0.10 trace.odbt
//	gcsim -policy saga -frac 0.05 -estimator fgs-hb -history 0.8 trace.odbt
//	gcsim -policy fixed -interval 200 -phases -dist trace.odbt
//	gcsim -compare "saio:0.1,saga:0.1:oracle,pi:0.1,fixed:300,never"
//	gcsim -policy saga -fault-profile estimator-dropout -fault-seed 7  # chaos run
//
// If no trace file is given, a fresh OO7 trace is generated in memory
// (flags -conn and -seed control it); trace files are replayed as streams.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"odbgc/internal/core"
	"odbgc/internal/fault"
	"odbgc/internal/gc"
	"odbgc/internal/metrics"
	"odbgc/internal/obs"
	"odbgc/internal/oo7"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gcsim:", err)
		os.Exit(1)
	}
}

// run executes the CLI under ctx; cancelling it (main wires SIGINT and
// SIGTERM) stops the replay at its next event boundary.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy    = fs.String("policy", "saio", "rate policy: saio, saga, pi, coupled, fixed, never")
		frac      = fs.Float64("frac", 0.10, "requested fraction for saio (I/O share) or saga/pi (garbage share)")
		interval  = fs.Int("interval", 200, "fixed policy: pointer overwrites per collection")
		estimator = fs.String("estimator", "fgs-hb", "garbage estimator: oracle, cgs-cb, fgs-hb, fgs-window, fgs-pp")
		history   = fs.Float64("history", 0.8, "estimator history factor (or window length for fgs-window)")
		hist      = fs.Int("chist", 0, "saio history size c_hist in collections")
		slopeRef  = fs.Uint64("sloperef", 0, "saga time-weighted slope reference interval (0 = paper formula)")
		selection = fs.String("selection", "updated-pointer", "partition selection: updated-pointer, hybrid, random, round-robin, oracle-max-garbage")
		preamble  = fs.Int("preamble", 10, "cold-start collections excluded from summary means")
		conn      = fs.Int("conn", 3, "connectivity when generating a trace in memory")
		seed      = fs.Int64("seed", 1, "seed when generating a trace in memory")
		fixups    = fs.Bool("fixups", false, "charge physical pointer-fixup I/O to the collector")
		perColl   = fs.Bool("log", false, "print one line per collection")
		every     = fs.Int("logevery", 1, "with -log, print every Nth collection")
		phasesOut = fs.Bool("phases", false, "print a per-phase summary table")
		dist      = fs.Bool("dist", false, "print collection yield and interval distributions")
		compare   = fs.String("compare", "", `comma-separated policy specs to compare on the same trace, e.g. "saio:0.1,saga:0.1:fgs-hb,fixed:300,never"`)
		faultProf = fs.String("fault-profile", "off", "fault-injection profile: "+strings.Join(fault.ProfileNames(), ", "))
		faultSeed = fs.Int64("fault-seed", 1, "seed for the fault schedule (independent of -seed)")
		lenient   = fs.Bool("lenient", false, "tolerate a truncated trace file: run on the surviving prefix")
		eventsOut = fs.String("events", "", "write a structured JSONL event log to this path (see cmd/obsdump)")
		manifest  = fs.String("manifest", "", "write a run provenance manifest (config, seeds, trace identity, artifact digests) to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(*every, *frac, *history, *preamble); err != nil {
		return err
	}

	profile, err := fault.LookupProfile(*faultProf)
	if err != nil {
		return err
	}
	faultsOn := profile.Estimator() || profile.Trace()

	if *compare != "" {
		if faultsOn {
			return fmt.Errorf("-compare does not support fault injection; run policies one at a time")
		}
		if *eventsOut != "" || *manifest != "" {
			return fmt.Errorf("-compare does not support -events or -manifest; run policies one at a time")
		}
		return runCompare(stdout, fs, *compare, *selection, *preamble, *conn, *seed, *fixups)
	}
	if profile.Trace() && fs.NArg() == 0 {
		return fmt.Errorf("-fault-profile %s: trace faults apply only to a trace file; name one (gcsim [flags] trace.odbt)", profile.Name)
	}

	// When the fault profile corrupts the estimator signal, the estimator is
	// wrapped in a chaos shim, kept here to report its dropout counts.
	var chaos *fault.ChaosEstimator
	pol, err := core.NewPolicy(*policy, core.PolicyParams{
		Frac: *frac, Interval: *interval, Hist: *hist, SlopeRef: *slopeRef,
		Estimator: func() (core.Estimator, error) {
			est, err := core.NewEstimator(*estimator, *history)
			if err != nil || !profile.Estimator() {
				return est, err
			}
			if chaos, err = fault.NewChaosEstimator(est, profile, *faultSeed); err != nil {
				return nil, err
			}
			return chaos, nil
		},
	})
	if err != nil {
		return err
	}
	if profile.Estimator() && chaos == nil {
		return fmt.Errorf("-fault-profile %s: estimator faults apply only to a policy with a garbage estimator (-policy saga, pi or coupled), not -policy %s", profile.Name, *policy)
	}
	sel, err := gc.NewSelectionPolicy(*selection, *seed)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Policy:              pol,
		Selection:           sel,
		PreambleCollections: *preamble,
		PhysicalFixups:      *fixups,
	}

	// The event log must exist before the simulator: sim.New announces the
	// run to its observer.
	var events *obs.JSONLWriter
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		events = obs.NewJSONLWriter(f)
		cfg.Observer = events
	}
	closeEvents := func() error {
		if events == nil {
			return nil
		}
		err := events.Close()
		events = nil
		if err != nil {
			return fmt.Errorf("writing event log %s: %w", *eventsOut, err)
		}
		return nil
	}
	defer func() { _ = closeEvents() }()

	s, err := sim.New(cfg)
	if err != nil {
		return err
	}

	// A generated trace is replayed from memory, a trace file as a stream; a
	// lenient read takes the file whole, to end a cut one where it is safe.
	var tr *trace.Trace
	var rd *trace.Reader
	var traceID *obs.TraceIdentity
	var truncated bool
	var dropped int
	switch fs.NArg() {
	case 0:
		tr, err = oo7.FullTrace(oo7.SmallPrime(*conn), *seed)
		if err != nil {
			return err
		}
		if *manifest != "" {
			sum, err := obs.HashTrace(tr)
			if err != nil {
				return err
			}
			traceID = &obs.TraceIdentity{Source: "generated:oo7", Events: tr.Len(), SHA256: sum}
		}
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		var r io.Reader = f
		if profile.Trace() {
			st, err := f.Stat()
			if err != nil {
				return err
			}
			r, err = fault.CorruptTrace(f, st.Size(), profile, *faultSeed)
			if err != nil {
				return err
			}
		}
		if *manifest != "" {
			_, sum, err := obs.HashFile(fs.Arg(0))
			if err != nil {
				return err
			}
			// Events is filled in after the run; the file digest pins identity.
			traceID = &obs.TraceIdentity{Source: "file:" + filepath.Base(fs.Arg(0)), SHA256: sum}
		}
		if *lenient {
			tr, truncated, dropped, err = trace.ReadAllLenient(r)
		} else {
			rd, err = trace.NewReader(r)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: gcsim [flags] [trace.odbt]")
	}

	var res *sim.Result
	if rd != nil {
		res, err = s.RunStreamContext(ctx, rd)
	} else {
		res, err = s.RunContext(ctx, tr)
	}
	if err != nil {
		return err
	}
	if truncated {
		fmt.Fprintf(stdout, "note: trace was truncated; ran on the surviving %d-event prefix (%d trailing build events dropped)\n", res.Events, dropped)
	}

	if *perColl {
		for i := 0; i < len(res.Collections); i += *every {
			c := res.Collections[i]
			fmt.Fprintf(stdout, "#%4d %-9s ow=%7d interval=%5d part=%3d reclaimed=%7dB live=%7dB traced=%5d garbage=%.3f gcio=%d\n",
				c.Index, c.Phase, c.After.Overwrites, c.Interval, c.Result.Partition,
				c.Result.ReclaimedBytes, c.Result.LiveBytes, c.Result.LiveObjects, c.GarbageFrac(), c.Result.IO.GCIO())
		}
	}

	printSummary(stdout, res)
	if chaos != nil {
		fmt.Fprintf(stdout, "estimator chaos:   %d signals dropped, %d garbled\n", chaos.Dropped(), chaos.Garbled())
	}
	if *phasesOut {
		printPhaseSummaries(stdout, res)
	}
	if *dist {
		if err := printDistributions(stdout, res); err != nil {
			return err
		}
	}

	// The event log must be flushed before the manifest digests it.
	if err := closeEvents(); err != nil {
		return err
	}
	if *manifest != "" {
		if traceID != nil && traceID.Events == 0 {
			traceID.Events = res.Events
		}
		m := &obs.Manifest{
			Tool:      "gcsim",
			Config:    obs.FlagKVs(fs),
			Seed:      *seed,
			Policy:    res.PolicyName,
			Selection: res.SelectionName,
			Trace:     traceID,
		}
		if faultsOn {
			m.FaultSeed = *faultSeed
		}
		if *eventsOut != "" {
			if err := m.AddArtifact(*eventsOut); err != nil {
				return err
			}
		}
		if err := m.SetSummary(obs.Summary{
			Events:      res.Events,
			Collections: len(res.Collections),
			GCIOFrac:    obs.Float(res.GCIOFrac),
			GarbageFrac: obs.Float(res.GarbageFrac),
			Reclaimed:   res.TotalReclaimed,
			TotalIO:     res.Final.TotalIO(),
		}); err != nil {
			return err
		}
		if err := m.Write(*manifest); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "manifest:          %s (summary %s)\n", *manifest, m.SummarySHA256[:12])
	}
	return nil
}

// validateFlags rejects out-of-range flag values with actionable errors
// instead of silently clamping them.
func validateFlags(logEvery int, frac, history float64, preamble int) error {
	if logEvery < 1 {
		return fmt.Errorf("-logevery must be >= 1 (got %d)", logEvery)
	}
	if frac < 0 || frac > 1 {
		return fmt.Errorf("-frac must be in [0, 1] (got %g)", frac)
	}
	if history < 0 {
		return fmt.Errorf("-history must be >= 0 (got %g)", history)
	}
	if preamble < 0 {
		return fmt.Errorf("-preamble must be >= 0 (got %d)", preamble)
	}
	return nil
}

// printDistributions renders yield and interval histograms over the run's
// collections.
func printDistributions(w io.Writer, res *sim.Result) error {
	if len(res.Collections) == 0 {
		fmt.Fprintln(w, "no collections: nothing to plot")
		return nil
	}
	maxYield, maxInterval := 1.0, 1.0
	for _, c := range res.Collections {
		if v := float64(c.Result.ReclaimedBytes); v > maxYield {
			maxYield = v
		}
		if v := float64(c.Interval); v > maxInterval {
			maxInterval = v
		}
	}
	yield, err := metrics.NewHistogram(0, maxYield+1, 10)
	if err != nil {
		return err
	}
	interval, err := metrics.NewHistogram(0, maxInterval+1, 10)
	if err != nil {
		return err
	}
	for _, c := range res.Collections {
		yield.Add(float64(c.Result.ReclaimedBytes))
		interval.Add(float64(c.Interval))
	}
	fmt.Fprintf(w, "\ncollection yield distribution (bytes, mean %.0f):\n%s", yield.Mean(), yield.String())
	fmt.Fprintf(w, "\ncollection interval distribution (overwrites, mean %.0f):\n%s", interval.Mean(), interval.String())
	return nil
}

// printPhaseSummaries renders the per-phase breakdown.
func printPhaseSummaries(w io.Writer, res *sim.Result) {
	t := &metrics.Table{Header: []string{"phase", "events", "collections", "reclaimed B", "app I/O", "gc I/O", "mean garbage %"}}
	for _, ps := range res.PhaseSummaries {
		t.AddRow(ps.Label, fmt.Sprint(ps.Events), fmt.Sprint(ps.Collections),
			fmt.Sprint(ps.Reclaimed), fmt.Sprint(ps.IO.AppIO()), fmt.Sprint(ps.IO.GCIO()),
			fmt.Sprintf("%.2f", ps.GarbageFrac*100))
	}
	fmt.Fprint(w, t.String())
}

// runCompare runs several policies on the same in-memory trace and prints a
// comparison table. Specs: name[:frac-or-interval[:estimator]].
func runCompare(w io.Writer, fs *flag.FlagSet, specs, selection string, preamble, conn int, seed int64, fixups bool) error {
	if fs.NArg() > 1 {
		return fmt.Errorf("usage: gcsim -compare ... [trace.odbt]")
	}
	var tr *trace.Trace
	var err error
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		tr, err = trace.ReadAll(f)
		_ = f.Close()
		if err != nil {
			return err
		}
	} else {
		tr, err = oo7.FullTrace(oo7.SmallPrime(conn), seed)
		if err != nil {
			return err
		}
	}

	t := &metrics.Table{Header: []string{"policy", "collections", "total I/O", "gc I/O %", "mean garbage %", "reclaimed %"}}
	for _, spec := range strings.Split(specs, ",") {
		pol, err := parsePolicySpec(strings.TrimSpace(spec))
		if err != nil {
			return err
		}
		sel, err := gc.NewSelectionPolicy(selection, seed)
		if err != nil {
			return err
		}
		s, err := sim.New(sim.Config{
			Policy:              pol,
			Selection:           sel,
			PreambleCollections: preamble,
			PhysicalFixups:      fixups,
		})
		if err != nil {
			return err
		}
		res, err := s.Run(tr)
		if err != nil {
			return fmt.Errorf("%s: %w", pol.Name(), err)
		}
		reclaimedPct := 0.0
		if res.TotalGarbage > 0 {
			reclaimedPct = 100 * float64(res.TotalReclaimed) / float64(res.TotalGarbage)
		}
		t.AddRow(res.PolicyName, fmt.Sprint(len(res.Collections)),
			fmt.Sprint(res.Final.TotalIO()),
			fmt.Sprintf("%.2f", res.GCIOFrac*100),
			fmt.Sprintf("%.2f", res.GarbageFrac*100),
			fmt.Sprintf("%.1f", reclaimedPct))
	}
	fmt.Fprint(w, t.String())
	return nil
}

// parsePolicySpec builds a policy from "name[:value[:estimator]]"; value is
// the interval for fixed and the requested fraction for every other policy.
func parsePolicySpec(spec string) (core.RatePolicy, error) {
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return nil, fmt.Errorf("bad policy spec %q: want name[:value[:estimator]]", spec)
	}
	estName := "fgs-hb"
	if len(parts) > 2 {
		estName = parts[2]
	}
	p := core.PolicyParams{
		Frac:      0.10,
		Interval:  200,
		Estimator: func() (core.Estimator, error) { return core.NewEstimator(estName, 0) },
	}
	if len(parts) > 1 && parts[1] != "" {
		var err error
		if parts[0] == "fixed" {
			if p.Interval, err = strconv.Atoi(parts[1]); err != nil {
				return nil, fmt.Errorf("bad interval %q in spec %q", parts[1], spec)
			}
		} else if p.Frac, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return nil, fmt.Errorf("bad fraction %q in spec %q", parts[1], spec)
		}
	}
	return core.NewPolicy(parts[0], p)
}

func printSummary(w io.Writer, res *sim.Result) {
	fmt.Fprintf(w, "policy:            %s (selection %s)\n", res.PolicyName, res.SelectionName)
	fmt.Fprintf(w, "events:            %d\n", res.Events)
	fmt.Fprintf(w, "collections:       %d (preamble %d excluded from means)\n", len(res.Collections), res.EffectivePreamble)
	fmt.Fprintf(w, "I/O:               app %d (r %d / w %d), gc %d (r %d / w %d), total %d\n",
		res.Final.AppIO(), res.Final.AppReads, res.Final.AppWrites,
		res.Final.GCIO(), res.Final.GCReads, res.Final.GCWrites, res.Final.TotalIO())
	fmt.Fprintf(w, "gc I/O share:      %.2f%% of total I/O (measurement window)\n", res.GCIOFrac*100)
	fmt.Fprintf(w, "garbage:           mean %.2f%% of database (sampled; min %.2f%% max %.2f%%)\n",
		res.GarbageFrac*100, res.GarbageFracMin*100, res.GarbageFracMax*100)
	fmt.Fprintf(w, "reclaimed:         %d of %d garbage bytes ever created\n", res.TotalReclaimed, res.TotalGarbage)
	fmt.Fprintf(w, "final database:    %d bytes in %d partitions (%d garbage, %d of it pinned)\n",
		res.FinalDBBytes, res.Partitions, res.FinalGarbage, res.FinalPinnedGarbage)
	for _, m := range res.Phases {
		fmt.Fprintf(w, "phase %-9s at event %d, collection %d, overwrite %d\n",
			m.Label, m.Step, m.Collections, m.Overwrites)
	}
}
