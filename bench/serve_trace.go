package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"odbgc/internal/server"
)

// keptExchanges is how many request/response pairs the traced client keeps
// for the frame-codec drive.
const keptExchanges = 5000

// singlePass is one single-client pass of a fixed request count.
type singlePass struct {
	su     *serveSetup
	c      *client
	window time.Duration
	// What the counted requests left behind, read once the last one settled.
	start, end        *server.Stats
	fsEnd             fsCounts
	pcEnd             int // collections the pause clock had seen
	commitEnd, ckpEnd int // commits and checkpoints the traced backend had seen
}

// runSinglePass sets a program up, preloads one client, and sends exactly n
// requests of the seeded stream. With one closed-loop client and no timers in
// the program, every count the pass produces repeats exactly.
func runSinglePass(o programOpts, seed int64, n int, before func(*singlePass) error) (*singlePass, error) {
	if o.tc != nil {
		o.tc.log.off.Store(true)
	}
	su, err := setUpServe(o, 1, seed)
	if err != nil {
		return nil, err
	}
	p := &singlePass{su: su, c: su.clients[0]}
	// The engine answers a request only after it finished everything the
	// previous one provoked (a collection runs after the response), so once
	// this stats call returns the engine is idle and its counters are settled.
	if p.start, err = statsVia(p.c); err != nil {
		su.tearDown()
		return nil, err
	}
	if before != nil {
		if err := before(p); err != nil {
			su.tearDown()
			return nil, err
		}
	}
	p.c.reserve(n)
	if su.prog.fs != nil {
		su.prog.fs.armed.Store(true)
	}
	if o.tc != nil {
		o.tc.log.off.Store(false)
	}
	var phase atomic.Int32
	phase.Store(phaseWindow)
	t0 := time.Now()
	p.c.run(&phase, n)
	p.window = time.Since(t0)
	if o.tc != nil {
		o.tc.log.off.Store(true)
	}
	prog := su.prog
	if prog.fs != nil {
		prog.fs.armed.Store(false)
	}
	// Settle as above, then read what the window left.
	if p.end, err = statsVia(p.c); err != nil {
		su.tearDown()
		return nil, err
	}
	if prog.fs != nil {
		p.fsEnd = prog.fs.counts()
	}
	if prog.pc != nil {
		p.pcEnd = len(prog.pc.pausesNs)
	}
	if prog.tb != nil {
		p.commitEnd, p.ckpEnd = len(prog.tb.commitNs), len(prog.tb.checkpointNs)
	}
	if p.c.okInWindow != n {
		err := fmt.Errorf("single-client pass completed %d of %d requests: %v", p.c.okInWindow, n, p.c.firstErr)
		su.tearDown()
		return nil, err
	}
	return p, nil
}

// serveTraced is the traced pass of a serve workload: one client, a fixed
// number of requests.
func serveTraced(rc runConfig, res *result, dirFor func(string) string) error {
	n := tracedRequestsPerSecond * int(rc.seconds.Seconds())
	nBase := n / 4
	durable := dirFor("x") != ""

	// Pass 1, untraced, the program as odbgcd builds it: the baseline for the
	// tracing overhead, and the idle-server ping floor.
	var pingUs []float64
	base, err := runSinglePass(programOpts{dataDir: dirFor("base")}, rc.seed, nBase, func(p *singlePass) error {
		for i := 0; i < 2000; i++ {
			_, dt, err := p.c.roundTrip(server.Request{Op: server.OpPing})
			if err != nil {
				return err
			}
			pingUs = append(pingUs, float64(dt)/1e3)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Means, not medians: the round trips are bimodal (reads, and writes that
	// wait for a sync), and the median jumps between the modes.
	baseRtt := mean(nsToUs(base.c.rttNs))
	base.su.tearDown()
	res.set("server.ping_rtt_p50_us", median(pingUs), len(pingUs))

	// Pass 2, untraced, flight recorder off: what the recorder costs.
	norec, err := runSinglePass(programOpts{dataDir: dirFor("norec"), noRecorder: true}, rc.seed, nBase, nil)
	if err != nil {
		return err
	}
	norecRtt := mean(nsToUs(norec.c.rttNs))
	norec.su.tearDown()
	res.set("obs.span_overhead_pct", 100*(baseRtt/norecRtt-1), nBase)

	// Pass 3, traced.
	tc := &traceCtx{log: newSpanLog(16*n + 1024)}
	var pcStart, commitStart, ckptStart int
	var fsStart fsCounts
	var createdStart, displacedStart int
	tp, err := runSinglePass(programOpts{dataDir: dirFor("traced"), tc: tc}, rc.seed, n, func(p *singlePass) error {
		prog := p.su.prog
		p.c.keep = make([]exchange, 0, keptExchanges)
		pcStart = len(prog.pc.pausesNs)
		if prog.tb != nil {
			commitStart, ckptStart = len(prog.tb.commitNs), len(prog.tb.checkpointNs)
			fsStart = prog.fs.counts()
		}
		createdStart, displacedStart = p.c.model.created, p.c.model.displaced
		return nil
	})
	if err != nil {
		return err
	}
	prog, c := tp.su.prog, tp.c

	rtt := nsToUs(c.rttNs)
	queue, service := nsToUs(c.queueNs), nsToUs(c.serviceNs)
	wire := make([]float64, len(rtt))
	for i := range rtt {
		wire[i] = rtt[i] - queue[i] - service[i]
	}
	sRtt, sQueue, sService := sortedCopy(rtt), sortedCopy(queue), sortedCopy(service)
	res.set("server.rtt_p99_us", quantile(sRtt, 0.99), len(rtt))
	res.set("server.rtt_p999_us", quantile(sRtt, 0.999), len(rtt))
	res.set("server.queue_p50_us", quantile(sQueue, 0.5), len(rtt))
	res.set("server.queue_p999_us", quantile(sQueue, 0.999), len(rtt))
	res.set("server.service_p50_us", quantile(sService, 0.5), len(rtt))
	res.set("server.service_p999_us", quantile(sService, 0.999), len(rtt))
	res.set("server.wire_p50_us", median(wire), len(rtt))
	res.set("server.shed_frac", ratio(float64(c.shed), float64(c.sent)), c.sent)
	res.set("server.error_frac", ratio(float64(c.failed-c.shed), float64(c.sent)), c.sent)
	res.set("bench.trace_overhead_pct", 100*(mean(rtt)/baseRtt-1), n)
	res.note("requests", float64(n))
	res.note("window_s", tp.window.Seconds())

	// Output checks, as in the untraced pass.
	verifyServe(res, tp.su)
	_ = c.cli.Close()
	if err := prog.stop(); err != nil {
		res.fail("drain: %v", err)
	}
	if durable {
		verifyDurable(res, tp.su, dirFor("crash"))
	}

	// The engine loop has exited: everything it owned is safe to read.
	colls := float64(tp.end.Collections - tp.start.Collections)
	appIO, gcIO := float64(tp.end.AppIO-tp.start.AppIO), float64(tp.end.GCIO-tp.start.GCIO)
	res.set("gc.collections", colls, 1)
	res.set("gc.collections_per_kreq", 1000*colls/float64(n), n)
	share := 100 * ratio(gcIO, appIO+gcIO)
	res.set("core.gc_io_share_pct", share, int(colls))
	res.set("core.share_err_pp", math.Abs(share-100*serveShare), int(colls))
	res.set("storage.app_io_per_kop", 1000*appIO/float64(n), n)
	res.set("storage.gc_io_per_collect", ratio(gcIO, colls), int(colls))
	res.set("storage.partitions", float64(tp.end.Partitions), 1)
	res.set("storage.db_bytes", float64(tp.end.DBBytes), 1)
	io := prog.heap.Disk().Stats()
	res.set("storage.read_miss_frac", ratio(float64(io.AppReads), float64(prog.eng.Requests())), int(prog.eng.Requests()))

	pc := prog.pc
	var collectUs, selectUs, afterUs, pauseUs []float64
	for j := pcStart; j < tp.pcEnd; j++ {
		pauseUs = append(pauseUs, float64(pc.pausesNs[j])/1e3)
		selectUs = append(selectUs, float64(pc.selectNs[j])/1e3)
		afterUs = append(afterUs, float64(pc.afterNs[j])/1e3)
		collectUs = append(collectUs, float64(pc.pausesNs[j]-pc.selectNs[j]-pc.afterNs[j])/1e3)
	}
	setCollectorMetrics(res, pc.results[pcStart:tp.pcEnd], collectUs, selectUs, afterUs, pauseUs)

	if tb := prog.tb; tb != nil {
		var commitUs, ckptMs []float64
		for _, d := range tb.commitNs[commitStart:tp.commitEnd] {
			commitUs = append(commitUs, float64(d)/1e3)
		}
		for _, d := range tb.checkpointNs[ckptStart:tp.ckpEnd] {
			ckptMs = append(ckptMs, float64(d)/1e6)
		}
		sc := sortedCopy(commitUs)
		res.set("disk.commit_p50_us", quantile(sc, 0.5), len(sc))
		res.set("disk.commit_p999_us", quantile(sc, 0.999), len(sc))
		res.set("disk.checkpoint_p50_ms", median(ckptMs), len(ckptMs))
		res.set("disk.checkpoint_max_ms", maxOf(ckptMs), len(ckptMs))
		d := tp.fsEnd.sub(fsStart)
		res.set("disk.syncs_per_req", float64(d.syncs)/float64(n), n)
		res.set("disk.wal_bytes_per_req", float64(d.walBytes)/float64(n), n)
		userBytes := float64((c.model.created-createdStart)*leafBytes + (c.model.displaced-displacedStart)*8)
		res.set("disk.write_amp", ratio(float64(d.walBytes+d.pageBytes), userBytes), n)
		res.set("disk.checkpoints_per_kreq", 1000*float64(len(ckptMs))/float64(n), n)
		res.set("disk.page_bytes_per_checkpoint", ratio(float64(d.pageBytes), float64(len(ckptMs))), len(ckptMs))
	}
	if err := directFrames(c.keep, res); err != nil {
		return err
	}
	spans := tc.log.spans()
	setSelfMetrics(res, spans, tp.window)
	res.note("spans_dropped", float64(tc.log.dropped.Load()))
	if err := writeSpansJSONL(filepath.Join(rc.outDir, "spans-"+rc.workload+".jsonl"), spans); err != nil {
		return err
	}
	if err := prog.seal(); err != nil {
		res.fail("seal: %v", err)
	}
	res.Attempted += c.sent
	res.Failed += c.failed
	if c.firstErr != nil {
		res.addError(c.firstErr.Error())
	}
	runtime.KeepAlive(prog)

	// The same stream through Engine.Submit, no socket.
	if err := directSubmit(programOpts{dataDir: dirFor("submit")}, rc.seed, nBase, res); err != nil {
		return err
	}
	if err := directPolicy(res); err != nil {
		return err
	}
	if durable {
		return os.RemoveAll(filepath.Join(rc.outDir, "data"))
	}
	return nil
}
