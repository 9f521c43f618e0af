package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/server"
)

func TestPickTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {250000, 0.999},
	} {
		got := pickTail(tc.n)
		if got != tc.want {
			t.Errorf("pickTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if tc.n >= 20 && tc.n-rankOf(tc.n, got) < 10 {
			t.Errorf("pickTail(%d) = %v leaves %d samples beyond", tc.n, got, tc.n-rankOf(tc.n, got))
		}
	}
	// The next rung up must be the one that breaks the rule.
	for _, n := range []int{99, 999, 9999} {
		p := pickTail(n)
		for _, higher := range tailLadder {
			if higher > p && n-rankOf(n, higher) >= 10 {
				t.Errorf("pickTail(%d) = %v but %v also has ten samples beyond", n, p, higher)
			}
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 500, 0.9: 900, 0.99: 990, 0.999: 999} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// drawRequests is the first n requests of a client model whose server always
// says yes and hands out consecutive OIDs.
func drawRequests(seed int64, n int) []server.Request {
	m := newClientModel(seed)
	next := uint64(0)
	answer := func(req server.Request) (server.Response, error) {
		resp := server.Response{Status: server.StatusOK}
		if req.Op == server.OpCreate {
			next++
			resp.OID = next
		}
		return resp, nil
	}
	if err := m.preload(answer); err != nil {
		panic(err)
	}
	out := make([]server.Request, n)
	for i := range out {
		out[i] = m.next()
		resp, _ := answer(out[i])
		if out[i].Op == server.OpSet {
			resp.Old = m.expected
		}
		if err := m.ack(out[i], resp); err != nil {
			panic(err)
		}
	}
	return out
}

func TestRequestStreamFollowsItsSeed(t *testing.T) {
	a, b, c := drawRequests(7, 5000), drawRequests(7, 5000), drawRequests(8, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds drew different request streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same request stream")
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[r.Op]++
	}
	for op, want := range map[string]float64{server.OpAccess: 0.35, server.OpUpdate: 0.20, server.OpCreate: 0.15, server.OpSet: 0.15, server.OpUnroot: 0.15} {
		if got := float64(counts[op]) / float64(len(a)); got < want-0.03 || got > want+0.03 {
			t.Errorf("%s is %.3f of the stream, want about %.2f", op, got, want)
		}
	}
}

func TestTraceFollowsItsSeed(t *testing.T) {
	a, err := loadTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadTrace(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.tr.Events, b.tr.Events) {
		t.Fatal("equal seeds generated different traces")
	}
	if reflect.DeepEqual(a.tr.Events, c.tr.Events) {
		t.Fatal("different seeds generated the same trace")
	}
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	pc := &pauseClock{}
	saio, err := core.NewSAIO(core.SAIOConfig{Frac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewFGSHB(0.8)
	if err != nil {
		t.Fatal(err)
	}
	saga, err := core.NewSAGA(core.SAGAConfig{Frac: 0.1}, est)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapPolicy(saio, pc).(sagaDiag); ok {
		t.Error("wrapped SAIO answers the estimator diagnostics SAIO does not have")
	}
	d, ok := wrapPolicy(saga, pc).(sagaDiag)
	if !ok {
		t.Fatal("wrapped SAGA lost LastEstimate/LastTarget/LastInterval")
	}
	if d.LastInterval() != saga.LastInterval() {
		t.Error("diagnostics are not forwarded to the wrapped policy")
	}
	if got := wrapPolicy(saga, pc).Name(); got != saga.Name() {
		t.Errorf("wrapped policy is named %q, want %q", got, saga.Name())
	}
	if _, ok := wrapSelection(gc.UpdatedPointer{}, pc).(gc.YieldObserver); ok {
		t.Error("wrapped UPDATEDPOINTER answers gc.YieldObserver, which it does not implement")
	}
	if _, ok := wrapSelection(&gc.Hybrid{}, pc).(gc.YieldObserver); !ok {
		t.Error("wrapped Hybrid lost gc.YieldObserver")
	}
}

func TestWrappedReplayMatchesBareReplay(t *testing.T) {
	in, err := loadTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := replayOnce(replayOO7, in.tr)
	if err != nil {
		t.Fatal(err)
	}
	stepped, _, err := replayStepped(replayOO7, in.tr, &traceCtx{log: newSpanLog(len(in.tr.Events) + 4096)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameOutcome(wrapped.res, stepped.res); err != nil {
		t.Errorf("stepping with spans changed the run: %v", err)
	}
	if got, want := len(wrapped.pc.pausesNs), len(wrapped.res.Collections); got != want {
		t.Errorf("pause clock saw %d collections, the run reports %d", got, want)
	}
}

func TestSelfTimeTakesOnlyTheCoveredPart(t *testing.T) {
	spans := []spanRec{
		{name: "server.rtt", start: 0, end: 100},
		{name: "disk.commit", start: 10, end: 60, parent: 1},
		{name: "device.sync", start: 20, end: 50, parent: 2},
		{name: "gc.pause", start: 90, end: 150, parent: 1}, // outlives its cause
	}
	st := selfTimes(spans)
	for name, want := range map[string]int64{"server.rtt": 40, "disk.commit": 20, "device.sync": 30, "gc.pause": 60} {
		if got := st[name].SelfNs; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
	if got := rootNs(spans); got != 100 {
		t.Errorf("root time = %d, want 100", got)
	}
	if got := layerSelfNs(st)["device"]; got != 30 {
		t.Errorf("device layer self time = %d, want 30", got)
	}
}

func TestCrashImageHoldsOnlySyncedBytes(t *testing.T) {
	dir := t.TempDir()
	fs := newDeviceFS(filepath.Join(dir, "data"), nil)
	f, err := fs.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mustWrite := func(p string, off int64) {
		t.Helper()
		if _, err := f.WriteAt([]byte(p), off); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("durable.", 0)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite("lost", 8)
	img := filepath.Join(dir, "img")
	if err := fs.crashImage(img); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(img, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable." {
		t.Errorf("crash image holds %q, want only the synced %q", got, "durable.")
	}
	c := fs.counts()
	if c.writes != 2 || c.writeBytes != 12 || c.walBytes != 12 || c.syncs != 1 {
		t.Errorf("counts = %+v, want 2 writes, 12 bytes, 1 sync", c)
	}
	// Rewriting synced bytes without a Sync leaves no honest image.
	mustWrite("X", 0)
	if err := fs.crashImage(filepath.Join(dir, "img2")); err == nil {
		t.Error("crash image of a file whose synced prefix was rewritten succeeded")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.crashImage(filepath.Join(dir, "img3")); err != nil {
		t.Errorf("crash image after Sync: %v", err)
	}
}

// TestSingleClientCountsRepeatExactly is the property the traced pass rests
// on: one closed-loop client, a fixed request count and no timers in the
// program give the same device and collector counts every time.
func TestSingleClientCountsRepeatExactly(t *testing.T) {
	type counts struct {
		fs          fsCounts
		collections uint64
		appIO, gcIO uint64
		commits     int
	}
	pass := func(tag string) counts {
		tc := &traceCtx{log: newSpanLog(1 << 16)}
		p, err := runSinglePass(programOpts{dataDir: filepath.Join(t.TempDir(), tag), tc: tc}, 5, 1500, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.su.tearDown()
		res := newResult(runConfig{})
		verifyServe(res, p.su)
		if res.Failed != 0 {
			t.Fatalf("output checks failed: %v", res.Errors)
		}
		return counts{p.fsEnd, p.end.Collections, p.end.AppIO, p.end.GCIO, p.commitEnd}
	}
	a, b := pass("a"), pass("b")
	if a != b {
		t.Errorf("two identical passes counted differently:\n%+v\n%+v", a, b)
	}
	if a.fs.syncs == 0 || a.collections == 0 {
		t.Errorf("pass did no syncs or no collections: %+v", a)
	}
}

func TestServeDurableChecksPassAndCanFail(t *testing.T) {
	dir := t.TempDir()
	su, err := setUpServe(programOpts{dataDir: filepath.Join(dir, "data")}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	su.prog.fs.armed.Store(true)
	var phase atomic.Int32
	phase.Store(phaseWindow)
	var wg sync.WaitGroup
	for _, c := range su.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.reserve(2000)
			c.run(&phase, 2000)
		}(c)
	}
	wg.Wait()
	su.prog.fs.armed.Store(false)
	res := newResult(runConfig{})
	verifyServe(res, su)
	for _, c := range su.clients {
		_ = c.cli.Close()
		if c.failed != 0 {
			t.Errorf("client failed %d requests: %v", c.failed, c.firstErr)
		}
	}
	if err := su.prog.stop(); err != nil {
		t.Fatal(err)
	}
	verifyDurable(res, su, filepath.Join(dir, "crash"))
	if res.Failed != 0 {
		t.Errorf("output checks failed: %v", res.Errors)
	}
	// The check must be able to fail: claim a store the server never saw.
	su.clients[0].model.leaf[0][0]++
	bad := newResult(runConfig{})
	verifyDurable(bad, su, filepath.Join(dir, "crash2"))
	if bad.Failed == 0 {
		t.Error("durability check passed a model that disagrees with the crash image")
	}
	if err := su.prog.seal(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartSmall(t *testing.T) {
	rc := runConfig{workload: "restart", seed: 2, seconds: time.Second / 2, outDir: t.TempDir()}
	res, err := runRestartSpec(rc, restartSpec{groups: 300, tailBatches: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("output checks failed: %v", res.Errors)
	}
	for _, m := range endToEndMetrics {
		if v := res.Metrics[m.Name]; v <= 0 {
			t.Errorf("%s = %v, want a positive reading", m.Name, v)
		}
	}
}

func writeRuns(t *testing.T, path string, scale map[string]float64, skip string) {
	t.Helper()
	base := map[string]float64{"setup_s": 0.5, "ops_per_s": 1000, "lat_p50_us": 200, "stall_us": 4000, "live_heap_mb": 20}
	for _, w := range workloads {
		if w.name == skip {
			continue
		}
		for run := 0; run < 5; run++ {
			r := newResult(runConfig{workload: w.name, seed: int64(run)})
			r.Correct, r.Attempted = true, 10
			for name, v := range base {
				f := 1 + 0.01*float64(run) // a little run-to-run noise
				if s, ok := scale[name]; ok {
					f *= s
				}
				r.set(name, v*f, 1)
			}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	man := filepath.Join(dir, "BENCHMARK.json")
	b, err := manifestJSON(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(man, b, 0o644); err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, "a.jsonl")
	writeRuns(t, a, nil, "")
	same := filepath.Join(dir, "same.jsonl")
	writeRuns(t, same, nil, "")
	var out bytes.Buffer
	if code := runCompare(&out, man, a, same); code != 0 {
		t.Errorf("identical pair: exit %d\n%s", code, out.String())
	}
	// Inside the bound is not a breach; 30 % more live heap (bound 20 %) and
	// 30 % fewer operations per second (bound 25 %) are.
	for _, tc := range []struct {
		name   string
		scale  map[string]float64
		skip   string
		breach bool
		say    string
	}{
		{"10% slower", map[string]float64{"lat_p50_us": 1.10}, "", false, ""},
		{"30% more heap", map[string]float64{"live_heap_mb": 1.30}, "", true, "live_heap_mb"},
		{"30% less throughput", map[string]float64{"ops_per_s": 0.70}, "", true, "ops_per_s"},
		{"30% more throughput", map[string]float64{"ops_per_s": 1.30}, "", false, ""},
		{"workload missing", nil, "restart", true, "restart is missing"},
	} {
		p := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".jsonl")
		writeRuns(t, p, tc.scale, tc.skip)
		out.Reset()
		code := runCompare(&out, man, a, p)
		if tc.breach != (code != 0) {
			t.Errorf("%s: exit %d, want breach=%v\n%s", tc.name, code, tc.breach, out.String())
		}
		if tc.say != "" && !strings.Contains(out.String(), tc.say) {
			t.Errorf("%s: output does not mention %q\n%s", tc.name, tc.say, out.String())
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json equal to what the harness
// reports and inside the limits the driver refuses a file for.
func TestManifestMatchesTables(t *testing.T) {
	want, err := manifestJSON(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	var m manifest
	if err := json.Unmarshal(want, &m); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is malformed", unit, name)
		}
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 || len(want) > 64<<10 {
		t.Error("manifest exceeds the contract's sizes")
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("bound of %s is %v", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !hasSetup {
		t.Error("setup_s is missing")
	}
	for _, l := range m.PerLayer {
		check(l.Name, l.Unit)
	}
	for _, name := range exactCountMetrics {
		if !seen[name] {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}
