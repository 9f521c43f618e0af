package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/oo7"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
)

// replaySpec is one replay workload: the OO7 Small' connectivity-3 four-phase
// trace through sim.New+Run under one rate policy, UPDATEDPOINTER selection
// and the default 8 KB x 12-page geometry, all in memory.
type replaySpec struct {
	name       string
	share      float64 // SAIO's requested collector-I/O share; 0 for other policies
	makePolicy func() (core.RatePolicy, error)
}

var replayOO7 = replaySpec{
	name:  "replay-oo7",
	share: 0.10,
	makePolicy: func() (core.RatePolicy, error) {
		return core.NewSAIO(core.SAIOConfig{Frac: 0.10})
	},
}

// replayGCHeavy is Figure 1's most aggressive fixed rate.
var replayGCHeavy = replaySpec{
	name:       "replay-gcheavy",
	makePolicy: func() (core.RatePolicy, error) { return core.NewFixedRate(50) },
}

// shareTolerancePP is how far SAIO's achieved share may sit from the
// requested one before the run counts as failed. Over seeds 1-40 the error
// stayed below 1 pp; twice that is a controller that lost its target.
const shareTolerancePP = 2.0

// traceInput is the generated input of a replay run and what loading it cost.
type traceInput struct {
	tr                   *trace.Trace
	encodeMBps, decodeMB float64
}

// loadTrace is the replay set-up: generate the trace from the seed, write it
// in the binary format and read it back, as a researcher replaying a stored
// trace file would.
func loadTrace(seed int64) (*traceInput, error) {
	gen, err := oo7.FullTrace(oo7.SmallPrime(3), seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := trace.WriteAll(&buf, gen); err != nil {
		return nil, err
	}
	enc := time.Since(t0)
	mb := float64(buf.Len()) / 1e6
	t0 = time.Now()
	tr, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	dec := time.Since(t0)
	if err := trace.Validate(tr); err != nil {
		return nil, err
	}
	return &traceInput{tr: tr, encodeMBps: mb / enc.Seconds(), decodeMB: mb / dec.Seconds()}, nil
}

// repetition is one sim.New+Run and what the harness saw of it from outside.
type repetition struct {
	wall  time.Duration
	pc    *pauseClock
	res   *sim.Result
	sim   *sim.Simulator
	steps stepTimes // stepped (traced) repetitions only
}

// replayOnce runs one repetition through Simulator.Run. The policy and the
// selection are wrapped only to time collection pauses at the two seams every
// collection crosses; the wrappers forward everything else.
func replayOnce(spec replaySpec, tr *trace.Trace) (*repetition, error) {
	pol, err := spec.makePolicy()
	if err != nil {
		return nil, err
	}
	pc := &pauseClock{pausesNs: make([]int64, 0, 512)}
	t0 := time.Now()
	s, err := sim.New(sim.Config{Policy: wrapPolicy(pol, pc), Selection: wrapSelection(gc.UpdatedPointer{}, pc)})
	if err != nil {
		return nil, err
	}
	r, err := s.Run(tr)
	if err != nil {
		return nil, err
	}
	return &repetition{wall: time.Since(t0), pc: pc, res: r, sim: s}, nil
}

// sameOutcome reports how a repetition's result differs from the first one's;
// replay is deterministic, so any difference is a failure.
func sameOutcome(a, b *sim.Result) error {
	switch {
	case len(a.Collections) != len(b.Collections):
		return fmt.Errorf("collections %d != %d", len(b.Collections), len(a.Collections))
	case a.TotalReclaimed != b.TotalReclaimed:
		return fmt.Errorf("reclaimed %d != %d", b.TotalReclaimed, a.TotalReclaimed)
	case a.GCIOFrac != b.GCIOFrac:
		return fmt.Errorf("collector I/O share %v != %v", b.GCIOFrac, a.GCIOFrac)
	case a.Final != b.Final:
		return fmt.Errorf("I/O totals %+v != %+v", b.Final, a.Final)
	}
	return nil
}

func runReplay(rc runConfig, spec replaySpec) (*result, error) {
	res := newResult(rc)
	cal := newCalibrated()
	var setupS []float64
	var in *traceInput
	for i := 0; i < setupRepeats; i++ {
		wall, factor, err := cal.sample(func() (err error) { in, err = loadTrace(rc.seed); return })
		if err != nil {
			return res, err
		}
		setupS = append(setupS, wall.Seconds()*factor)
	}
	res.set("setup_s", median(setupS), len(setupS))
	if rc.traced {
		return res, replayTraced(rc, spec, in, res)
	}

	// Two repetitions let the Go heap reach its steady size before timing.
	for i := 0; i < 2; i++ {
		if _, err := replayOnce(spec, in.tr); err != nil {
			return res, err
		}
	}
	cal.reference()
	var wallUs, rawUs, pauseUs, rawPauseUs []float64
	var first, last *repetition
	for deadline := time.Now().Add(rc.seconds); time.Now().Before(deadline); {
		var rep *repetition
		_, factor, err := cal.sample(func() (err error) { rep, err = replayOnce(spec, in.tr); return })
		res.Attempted++
		if err != nil {
			// Finish's invariant sweep, or any step, refused the run.
			res.Failed++
			res.addError(err.Error())
			continue
		}
		if first == nil {
			first = rep
		} else if err := sameOutcome(first.res, rep.res); err != nil {
			res.Failed++
			res.addError("repetition differs from the first: " + err.Error())
		}
		last = rep
		rawUs = append(rawUs, float64(rep.wall)/1e3)
		wallUs = append(wallUs, float64(rep.wall)/1e3*factor)
		for _, p := range rep.pc.pausesNs {
			rawPauseUs = append(rawPauseUs, float64(p)/1e3)
			pauseUs = append(pauseUs, float64(p)/1e3*factor)
		}
	}
	if last == nil {
		return res, fmt.Errorf("no repetition completed")
	}
	med := median(wallUs)
	res.set("ops_per_s", float64(last.res.Events)/(med/1e6), len(wallUs))
	res.set("lat_p50_us", med, len(wallUs))
	res.set("stall_us", median(pauseUs), len(pauseUs))
	res.note("raw_lat_p50_us", median(rawUs))
	res.note("raw_stall_us", median(rawPauseUs))
	res.note("machine_slowdown", cal.slowdown())
	res.note("events", float64(last.res.Events))
	res.note("collections", float64(len(last.res.Collections)))
	res.note("gc_io_share_pct", last.res.GCIOFrac*100)
	checkShare(res, spec, last.res)
	wallUs, rawUs, pauseUs, rawPauseUs, first = nil, nil, nil, nil, nil
	res.set("live_heap_mb", liveHeapMiB(), 1)
	runtime.KeepAlive(last)
	runtime.KeepAlive(in)
	return res, nil
}

// checkShare fails the run when SAIO lost its requested share.
func checkShare(res *result, spec replaySpec, r *sim.Result) {
	if spec.share == 0 {
		return
	}
	if errPP := math.Abs(r.GCIOFrac-spec.share) * 100; errPP > shareTolerancePP {
		res.fail("SAIO achieved a %.2f %% collector-I/O share, requested %.0f %% (off by %.2f pp > %.1f)",
			r.GCIOFrac*100, spec.share*100, errPP, shareTolerancePP)
	}
}

// stepTimes accumulates Simulator.Step wall time per event kind, leaving out
// the steps during which a collection ran.
type stepTimes struct {
	ns [trace.KindIdle + 1]int64
	n  [trace.KindIdle + 1]int64
}

func (s *stepTimes) meanNs(k trace.Kind, overheadNs float64) float64 {
	if s.n[k] == 0 {
		return 0
	}
	return math.Max(0, float64(s.ns[k])/float64(s.n[k])-overheadNs)
}

// appMeanNs is the mean over the four application event kinds.
func (s *stepTimes) appMeanNs(overheadNs float64) float64 {
	var ns, n int64
	for _, k := range []trace.Kind{trace.KindCreate, trace.KindAccess, trace.KindUpdate, trace.KindOverwrite} {
		ns += s.ns[k]
		n += s.n[k]
	}
	if n == 0 {
		return 0
	}
	return math.Max(0, float64(ns)/float64(n)-overheadNs)
}

// replayStepped is one traced repetition: the same trace through
// Simulator.Step, one span per event, with the policy and selection wrappers
// recording the collection spans beneath it. tc.log may be nil (timing only).
func replayStepped(spec replaySpec, tr *trace.Trace, tc *traceCtx) (*repetition, float64, error) {
	pol, err := spec.makePolicy()
	if err != nil {
		return nil, 0, err
	}
	pc := &pauseClock{tc: tc, keepStats: true}
	t0 := time.Now()
	s, err := sim.New(sim.Config{Policy: wrapPolicy(pol, pc), Selection: wrapSelection(gc.UpdatedPointer{}, pc)})
	if err != nil {
		return nil, 0, err
	}
	rep := &repetition{pc: pc, sim: s}
	for i := range tr.Events {
		e := &tr.Events[i]
		before := len(pc.pausesNs)
		h := tc.log.begin("sim.step", 0, uint64(i))
		tc.setOp(h, uint64(i))
		st := time.Now()
		err := s.Step(e)
		dt := time.Since(st)
		tc.log.end(h)
		if err != nil {
			return nil, 0, err
		}
		if len(pc.pausesNs) == before {
			rep.steps.ns[e.Kind] += int64(dt)
			rep.steps.n[e.Kind]++
		}
	}
	tc.setOp(0, uint64(len(tr.Events)))
	ft := time.Now()
	h := tc.log.begin("sim.finish", 0, uint64(len(tr.Events)))
	rep.res, err = s.Finish()
	tc.log.end(h)
	finishMs := float64(time.Since(ft)) / 1e6
	if err != nil {
		return nil, 0, err
	}
	rep.wall = time.Since(t0)
	return rep, finishMs, nil
}

// replayTraced is the traced pass of a replay workload.
func replayTraced(rc runConfig, spec replaySpec, in *traceInput, res *result) error {
	tr := in.tr
	// Untraced baseline for the overhead figure.
	var base []float64
	for i := 0; i < 4; i++ {
		rep, err := replayOnce(spec, tr)
		if err != nil {
			return err
		}
		if i > 0 {
			base = append(base, float64(rep.wall))
		}
	}

	// In situ. The first stepped repetition records spans; the rest only time.
	reps := max(2, int(rc.seconds.Seconds())/2)
	log := newSpanLog(len(tr.Events) + 16*1024)
	var traced, finishMs []float64
	var steps stepTimes
	var collectUs, selectUs, afterUs, pauseUs []float64
	var first, last *repetition
	var spanWall time.Duration
	for i := 0; i < reps; i++ {
		tc := &traceCtx{}
		if i == 0 {
			tc.log = log
		}
		rep, fin, err := replayStepped(spec, tr, tc)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.addError(err.Error())
			continue
		}
		if first == nil {
			first, spanWall = rep, rep.wall
		} else if err := sameOutcome(first.res, rep.res); err != nil {
			res.Failed++
			res.addError("repetition differs from the first: " + err.Error())
		}
		last = rep
		traced = append(traced, float64(rep.wall))
		finishMs = append(finishMs, fin)
		for k := range steps.ns {
			steps.ns[k] += rep.steps.ns[k]
			steps.n[k] += rep.steps.n[k]
		}
		for j, p := range rep.pc.pausesNs {
			pauseUs = append(pauseUs, float64(p)/1e3)
			selectUs = append(selectUs, float64(rep.pc.selectNs[j])/1e3)
			afterUs = append(afterUs, float64(rep.pc.afterNs[j])/1e3)
			collectUs = append(collectUs, float64(p-rep.pc.selectNs[j]-rep.pc.afterNs[j])/1e3)
		}
	}
	if last == nil {
		return fmt.Errorf("no traced repetition completed")
	}
	clk := clockOverheadNs()
	r := last.res
	res.set("trace.encode_mb_per_s", in.encodeMBps, 1)
	res.set("trace.decode_mb_per_s", in.decodeMB, 1)
	res.set("sim.step_ns_create", steps.meanNs(trace.KindCreate, clk), int(steps.n[trace.KindCreate]))
	res.set("sim.step_ns_access", steps.meanNs(trace.KindAccess, clk), int(steps.n[trace.KindAccess]))
	res.set("sim.step_ns_update", steps.meanNs(trace.KindUpdate, clk), int(steps.n[trace.KindUpdate]))
	res.set("sim.step_ns_overwrite", steps.meanNs(trace.KindOverwrite, clk), int(steps.n[trace.KindOverwrite]))
	res.set("sim.finish_ms", median(finishMs), len(finishMs))
	setCollectorMetrics(res, last.pc.results, collectUs, selectUs, afterUs, pauseUs)
	res.set("gc.collections", float64(len(r.Collections)), 1)
	res.set("core.gc_io_share_pct", r.GCIOFrac*100, 1)
	if spec.share > 0 {
		res.set("core.share_err_pp", math.Abs(r.GCIOFrac-spec.share)*100, 1)
	}
	checkShare(res, spec, r)
	res.set("storage.app_io_per_kop", 1000*ratio(float64(r.Final.AppIO()), float64(r.Events)), r.Events)
	res.set("storage.gc_io_per_collect", ratio(float64(r.Final.GCIO()), float64(len(r.Collections))), len(r.Collections))
	res.set("storage.read_miss_frac", ratio(float64(r.Final.AppReads), float64(r.Events)), r.Events)
	res.set("storage.partitions", float64(r.Partitions), 1)
	res.set("storage.db_bytes", float64(r.FinalDBBytes), 1)

	// Direct drives of the layers beneath the simulator, same events.
	heapMean, err := directReplay(tr, res, clk)
	if err != nil {
		return err
	}
	res.set("sim.self_ns_per_event", math.Max(0, steps.appMeanNs(clk)-heapMean), r.Events)
	if err := directPolicy(res); err != nil {
		return err
	}
	if err := sagaPass(tr, res); err != nil {
		return err
	}

	spans := log.spans()
	setSelfMetrics(res, spans, spanWall)
	res.set("bench.trace_overhead_pct", 100*(median(traced)/median(base)-1), len(traced))
	res.note("traced_repetitions", float64(len(traced)))
	res.note("spans_dropped", float64(log.dropped.Load()))
	return writeSpansJSONL(filepath.Join(rc.outDir, "spans-"+rc.workload+".jsonl"), spans)
}

// setCollectorMetrics fills the gc collector rows from what the pause clock
// saw: one entry per collection in each slice.
func setCollectorMetrics(res *result, results []gc.CollectionResult, collectUs, selectUs, afterUs, pauseUs []float64) {
	n := len(pauseUs)
	c := sortedCopy(collectUs)
	res.set("gc.collect_p50_us", quantile(c, 0.5), n)
	res.set("gc.collect_p95_us", quantile(c, 0.95), n)
	res.set("gc.collect_max_us", maxOf(c), n)
	res.set("gc.select_us", mean(selectUs), n)
	res.set("core.after_collection_us", mean(afterUs), n)
	res.set("gc.pause_p50_us", median(pauseUs), n)
	res.set("gc.pause_max_us", maxOf(pauseUs), n)
	var reclaimed, live, tracedObjs float64
	for _, cr := range results {
		reclaimed += float64(cr.ReclaimedBytes)
		live += float64(cr.LiveBytes)
		tracedObjs += float64(cr.LiveObjects)
	}
	k := float64(len(results))
	res.set("gc.reclaimed_bytes_per_collect", ratio(reclaimed, k), len(results))
	res.set("gc.traced_objects_per_collect", ratio(tracedObjs, k), len(results))
	res.set("gc.yield_frac", ratio(reclaimed, reclaimed+live), len(results))
}

// setSelfMetrics fills the self-time rows from a span log covering wall.
func setSelfMetrics(res *result, spans []spanRec, wall time.Duration) {
	stats := selfTimes(spans)
	for layer, ns := range layerSelfNs(stats) {
		res.set("self."+layer+"_ms", float64(ns)/1e6, len(spans))
	}
	res.set("bench.spans", float64(len(spans)), 1)
	res.set("bench.span_coverage_pct", 100*ratio(float64(rootNs(spans)), float64(wall)), 1)
	fmt.Printf("self time by span (%d spans over %.1f ms):\n", len(spans), float64(wall)/1e6)
	printSelfTable(stats, int64(wall))
}

// sagaPass replays the trace once under SAGA with the FGS/HB estimator at a
// 10 % garbage target and reports how far the achieved garbage share landed.
func sagaPass(tr *trace.Trace, res *result) error {
	est, err := core.NewFGSHB(0.8)
	if err != nil {
		return err
	}
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
	if err != nil {
		return err
	}
	s, err := sim.New(sim.Config{Policy: pol})
	if err != nil {
		return err
	}
	r, err := s.Run(tr)
	if err != nil {
		return err
	}
	res.set("core.saga_garbage_err_pp", math.Abs(r.GarbageFrac-0.10)*100, r.MeasuredEvents)
	return nil
}
