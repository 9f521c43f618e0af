// Command odbgcd serves the object database over TCP with the paper's
// self-adaptive GC controllers running online: client sessions create,
// link, and unlink objects against a live heap, and SAIO/SAGA decide when
// to collect from the server's own streaming statistics — no trace
// annotations, no oracle.
//
// Usage:
//
//	odbgcd -addr :7421 -policy saga -frac 0.05 -estimator fgs-hb
//	odbgcd -addr :7421 -http :8080 -queue-depth 64 -max-sessions 128
//	odbgcd -service-delay 2ms -queue-depth 4      # reproducible overload demo
//
// Robustness spine: a bounded admission queue (overflow is shed with a
// retry-after hint), per-request and idle deadlines, a circuit breaker that
// degrades the garbage estimator to a coarse fallback on repeated bad
// signals, and a two-stage SIGINT shutdown — the first signal stops
// accepting and drains in-flight sessions, the second cancels hard. The
// event log and manifest are flushed on the drain path.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
	"odbgc/internal/server"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

func main() {
	sd := obs.NewShutdown(context.Background())
	stop := sd.Notify()
	defer stop()
	if err := runWithShutdown(sd, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "odbgcd:", err)
		os.Exit(1)
	}
}

// run executes the CLI with no signals wired; tests drive it directly.
func run(args []string, stdout, stderr io.Writer) error {
	return runWithShutdown(obs.NewShutdown(context.Background()), args, stdout, stderr)
}

func runWithShutdown(sd *obs.Shutdown, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("odbgcd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:7421", "TCP address to serve the object protocol on")
		httpAddr  = fs.String("http", "", `serve /metrics, /healthz, /statusz and /debug/pprof on this address (e.g. ":8080")`)
		policy    = fs.String("policy", "saga", "rate policy: saio, saga, pi, coupled, fixed, never")
		frac      = fs.Float64("frac", 0.10, "requested fraction for saio (I/O share) or saga/pi (garbage share)")
		interval  = fs.Int("interval", 200, "fixed policy: pointer overwrites per collection")
		initialIv = fs.Uint64("initial-interval", 0, "adaptive policies: overwrites before the bootstrap collection (0 = policy default)")
		estimator = fs.String("estimator", "fgs-hb", "garbage estimator: cgs-cb, fgs-hb, fgs-window, fgs-pp (oracle unavailable: live serving has none)")
		history   = fs.Float64("history", 0.8, "estimator history factor (or window length for fgs-window)")
		fallback  = fs.String("fallback-estimator", "cgs-cb", "estimator the circuit breaker degrades to on repeated bad signals")
		tripAfter = fs.Int("breaker-trip", 5, "consecutive bad estimator signals that trip the circuit breaker")
		cooldown  = fs.Int("breaker-cooldown", 8, "estimates served by the fallback before a half-open probe")
		probes    = fs.Int("breaker-probes", 3, "consecutive good half-open probes required to close the breaker")
		selection = fs.String("selection", "updated-pointer", "partition selection: updated-pointer, hybrid, random, round-robin")
		seed      = fs.Int64("seed", 1, "seed for randomized selection policies")

		queueDepth  = fs.Int("queue-depth", 128, "admission queue bound; requests past it are shed")
		maxSessions = fs.Int("max-sessions", 64, "concurrent session bound; connections past it are shed at accept")
		idleTimeout = fs.Duration("idle-timeout", 30*time.Second, "idle sessions are reaped after this long without a request")
		reqTimeout  = fs.Duration("req-timeout", 5*time.Second, "per-request deadline, queue wait included")
		drainGrace  = fs.Duration("drain-grace", 2*time.Second, "how long draining sessions may linger after the first SIGINT")
		serviceDlay = fs.Duration("service-delay", 0, "artificial per-request service time (makes overload reproducible in demos)")

		pageSize  = fs.Int("page-size", 8192, "storage page size in bytes")
		partPages = fs.Int("pages-per-partition", 12, "pages per partition")
		bufPages  = fs.Int("buffer-pages", 12, "buffer pool capacity in pages")

		eventsOut = fs.String("events", "", "write a structured JSONL event log to this path (see cmd/obsdump)")
		manifest  = fs.String("manifest", "", "write a run provenance manifest to this path on drain")

		tracesOut = fs.String("traces", "", "dump the span flight recorder to this path on drain (and to PATH.spike on shed-rate spikes)")
		traceBuf  = fs.Int("trace-buffer", 512, "flight recorder capacity in spans per ring; 0 disables tracing entirely")

		dataDir     = fs.String("data-dir", "", "persist the heap to a crash-safe disk store in this directory (WAL + checksummed pages); with the default -fsync always, restart recovers every acknowledged write")
		fsyncMode   = fs.String("fsync", "always", "with -data-dir, WAL fsync policy: always (fsync per commit; no acknowledged write is ever lost), group (fsync every few commits; a crash can lose the last unsynced window of acknowledged writes), never (durability only at checkpoints)")
		ckptEvery   = fs.Int("checkpoint-every", 1024, "with -data-dir, checkpoint the durable store every N commits (bounds WAL replay after a crash)")
		recoverOnly = fs.Bool("recover", false, "with -data-dir, run crash recovery, print what it rebuilt, and exit without serving")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: odbgcd [flags] (no positional arguments)")
	}
	if *frac < 0 || *frac > 1 {
		return fmt.Errorf("-frac must be in [0, 1] (got %g)", *frac)
	}
	if *estimator == "oracle" || *fallback == "oracle" {
		return fmt.Errorf("the oracle estimator needs trace annotations; a live server has none (use cgs-cb or fgs-hb)")
	}

	pol, breaker, err := buildPolicy(*policy, *frac, *interval, *initialIv, *estimator, *fallback, *history,
		server.BreakerConfig{TripAfter: *tripAfter, Cooldown: *cooldown, HalfOpenProbes: *probes})
	if err != nil {
		return err
	}
	sel, err := gc.NewSelectionPolicy(*selection, *seed)
	if err != nil {
		return err
	}
	mgr, err := storage.NewManager(storage.Config{PageSize: *pageSize, PagesPerPartition: *partPages, BufferPages: *bufPages})
	if err != nil {
		return err
	}
	heap := gc.NewHeap(objstore.NewStore(), mgr)

	// Durability: open (running crash recovery), rebuild the live heap from
	// the committed state, and only then attach the WAL so new mutations
	// are logged. The wall time of each half and the replay counts surface
	// on /metrics below and in the boot banner here.
	var durable *disk.Store
	var recInfo *disk.RecoveryInfo
	var openMs, rebuildMs float64
	if *recoverOnly && *dataDir == "" {
		return fmt.Errorf("-recover requires -data-dir")
	}
	if *dataDir != "" {
		fpol, err := disk.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		start := time.Now()
		st, info, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: *dataDir}, Fsync: fpol})
		if err != nil {
			return fmt.Errorf("opening durable store in %s: %w", *dataDir, err)
		}
		opened := time.Now()
		if err := server.RebuildHeap(heap, st); err != nil {
			_ = st.Close()
			return err
		}
		openMs = float64(opened.Sub(start)) / float64(time.Millisecond)
		rebuildMs = float64(time.Since(opened)) / float64(time.Millisecond)
		recInfo = info
		durable = st
		fmt.Fprintf(stdout, "recovered %d objects from %s in %.1fms (open %.1fms, rebuild %.1fms; checkpoint seq %d, %d batches / %d records replayed, torn tail: %v)\n",
			info.Objects, *dataDir, openMs+rebuildMs, openMs, rebuildMs, info.CheckpointSeq, info.BatchesReplayed, info.RecordsReplayed, info.TornTail)
		if *recoverOnly {
			fmt.Fprintf(stdout, "state digest: %x\n", info.Digest)
			return st.Close()
		}
		defer func() {
			if durable != nil {
				_ = durable.Close()
			}
		}()
	}

	// Observability: the live registry always exists (the serving metrics
	// need it); HTTP and the event log are opt-in.
	live := obs.NewLive()
	observers := []obs.Observer{live}
	var events *obs.JSONLWriter
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		events = obs.NewJSONLWriter(f)
		observers = append(observers, events)
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
	// The flight recorder retains the tail worth keeping (shed, errored,
	// expired, slowest spans, GC pauses); -trace-buffer 0 hands the serving
	// stack a nil recorder, whose fast path is free.
	var rec *span.Recorder
	if *traceBuf > 0 {
		var spikeMu sync.Mutex
		rec = span.NewRecorder(span.Config{
			Capacity: *traceBuf,
			OnSpike: func(shed, window int) {
				fmt.Fprintf(stderr, "odbgcd: shed-rate spike: %d of last %d requests shed\n", shed, window)
				if *tracesOut == "" {
					return
				}
				spikeMu.Lock()
				defer spikeMu.Unlock()
				if err := dumpTraces(rec, *tracesOut+".spike"); err != nil {
					fmt.Fprintf(stderr, "odbgcd: spike trace dump: %v\n", err)
				}
			},
		})
	}
	if *httpAddr != "" {
		var routes []obs.Route
		if rec != nil {
			routes = append(routes, obs.Route{Pattern: "/debug/traces", Handler: rec})
		}
		bound, stopServe, err := obs.ListenAndServe(*httpAddr, live, routes...)
		if err != nil {
			return fmt.Errorf("starting metrics server: %w", err)
		}
		defer stopServe()
		fmt.Fprintf(stdout, "serving metrics on http://%s/metrics\n", bound)
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-sd.Draining():
			live.SetDraining(true)
		case <-watchDone:
		}
	}()

	m := server.NewMetrics(live.Registry())
	engCfg := server.EngineConfig{
		Policy:          pol,
		Selection:       sel,
		QueueDepth:      *queueDepth,
		ServiceDelay:    *serviceDlay,
		Breaker:         breaker,
		Metrics:         m,
		Observer:        obs.NewMulti(observers...),
		Recorder:        rec,
		CheckpointEvery: *ckptEvery,
	}
	if durable != nil {
		engCfg.Durable = durable
		m.RecoveryObserve(recInfo.RecordsReplayed, recInfo.BatchesReplayed, recInfo.Objects, openMs, rebuildMs, recInfo.TornTail)
	}
	eng, err := server.NewEngine(heap, engCfg)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Addr:           *addr,
		MaxSessions:    *maxSessions,
		IdleTimeout:    *idleTimeout,
		RequestTimeout: *reqTimeout,
		DrainGrace:     *drainGrace,
	}, eng, m)
	if err != nil {
		return err
	}
	bound, err := srv.Listen()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving objects on %s (policy %s, selection %s, queue %d, sessions %d)\n",
		bound, pol.Name(), sel.Name(), eng.QueueDepth(), *maxSessions)

	serveErr := srv.Serve(sd.Context(), sd.Draining())

	// Drain path: the engine loop has exited, so its state is safe to read.
	st := eng.Snapshot()
	fmt.Fprintf(stdout, "drained: %d requests, %d collections, %d bytes reclaimed, %d objects live\n",
		eng.Requests(), st.Collections, st.ReclaimedBytes, st.Objects)
	if durable != nil {
		// Seal the store: any batch still staged (a request whose commit
		// failed transiently) goes out, then a final checkpoint makes the
		// next boot replay-free, then the handles close.
		if err := durable.Commit(); err != nil {
			return fmt.Errorf("final durable commit: %w", err)
		}
		if err := durable.Checkpoint(); err != nil {
			return fmt.Errorf("final durable checkpoint: %w", err)
		}
		dst := durable.Stats()
		fmt.Fprintf(stdout, "durable:  %d commits, %d checkpoints, %d objects in %d pages (seq %d)\n",
			dst.Commits, dst.Checkpoints, dst.Objects, dst.PageCount, dst.Seq)
		err := durable.Close()
		durable = nil
		if err != nil {
			return fmt.Errorf("closing durable store: %w", err)
		}
	}
	if breaker != nil {
		fmt.Fprintf(stdout, "breaker:  %s (%d trips, %d recoveries, %d bad signals)\n",
			breaker.State(), breaker.Trips(), breaker.Recoveries(), breaker.BadSignals())
	}
	if err := closeEvents(); err != nil {
		return err
	}
	if *tracesOut != "" && rec != nil {
		if err := dumpTraces(rec, *tracesOut); err != nil {
			return fmt.Errorf("writing trace dump %s: %w", *tracesOut, err)
		}
		rst := rec.Stats()
		fmt.Fprintf(stdout, "traces:   %s (%d finished, %d retained, %d shed, %d gc spans)\n",
			*tracesOut, rst.Finished, rst.Retained, rst.Shed, rst.GCSpans)
	}
	if *manifest != "" {
		man := &obs.Manifest{
			Tool:      "odbgcd",
			Config:    flagKVs(fs),
			Seed:      *seed,
			Policy:    pol.Name(),
			Selection: sel.Name(),
		}
		if *eventsOut != "" {
			if err := man.AddArtifact(*eventsOut); err != nil {
				return err
			}
		}
		if *tracesOut != "" && rec != nil {
			if err := man.AddArtifact(*tracesOut); err != nil {
				return err
			}
		}
		total := st.AppIO + st.GCIO
		sum := obs.Summary{
			Events:      int(eng.Requests()),
			Collections: int(st.Collections),
			Reclaimed:   st.ReclaimedBytes,
			TotalIO:     total,
		}
		if total > 0 {
			sum.GCIOFrac = obs.Float(float64(st.GCIO) / float64(total))
		}
		if err := man.SetSummary(sum); err != nil {
			return err
		}
		if err := man.Write(*manifest); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "manifest: %s (summary %s)\n", *manifest, man.SummarySHA256[:12])
	}
	return serveErr
}

// buildPolicy constructs the requested rate policy. Estimator-backed
// policies get their estimator wrapped in the circuit breaker (primary =
// the requested estimator, fallback = the coarse one), and the breaker is
// returned so the engine can export its state.
func buildPolicy(name string, frac float64, interval int, initialIv uint64, primary, fallback string, history float64, bcfg server.BreakerConfig) (core.RatePolicy, *server.Breaker, error) {
	var breaker *server.Breaker
	pol, err := core.NewPolicy(name, core.PolicyParams{
		Frac: frac, Interval: interval, InitialInterval: initialIv,
		Estimator: func() (core.Estimator, error) {
			p, err := core.NewEstimator(primary, history)
			if err != nil {
				return nil, err
			}
			f, err := core.NewEstimator(fallback, history)
			if err != nil {
				return nil, err
			}
			if breaker, err = server.NewBreaker(bcfg, p, f); err != nil {
				return nil, err
			}
			return breaker, nil
		},
	})
	return pol, breaker, err
}

// dumpTraces writes the recorder's current snapshot as span JSONL to path.
func dumpTraces(rec *span.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := rec.Dump(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// flagKVs snapshots every flag's effective value for the provenance manifest.
func flagKVs(fs *flag.FlagSet) []obs.KV {
	m := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		m[f.Name] = f.Value.String()
	})
	return obs.ConfigKVs(m)
}
