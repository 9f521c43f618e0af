package core

import (
	"math"
	"strings"
	"testing"

	"odbgc/internal/gc"
	"odbgc/internal/storage"
)

// fakeHeap scripts the controller's inputs.
type fakeHeap struct {
	db        int
	actGarb   int
	collected uint64
	sumPO     int
	parts     int
}

func (f *fakeHeap) DatabaseBytes() int          { return f.db }
func (f *fakeHeap) ActualGarbageBytes() int     { return f.actGarb }
func (f *fakeHeap) TotalCollectedBytes() uint64 { return f.collected }
func (f *fakeHeap) SumPartitionOverwrites() int { return f.sumPO }
func (f *fakeHeap) NumPartitions() int          { return f.parts }

// collRes builds a CollectionResult with the given reclaim and GC I/O.
func collRes(reclaimed int, gcReads, gcWrites uint64, po int) gc.CollectionResult {
	return gc.CollectionResult{
		ReclaimedBytes: reclaimed,
		PartitionPO:    po,
		IO:             storage.IOStats{GCReads: gcReads, GCWrites: gcWrites},
	}
}

func TestNeverCollect(t *testing.T) {
	var p NeverCollect
	if p.ShouldCollect(Clock{AppIO: 1 << 40, Overwrites: 1 << 40}) {
		t.Error("NeverCollect collected")
	}
	if p.Name() != "never" {
		t.Errorf("name = %q", p.Name())
	}
	p.AfterCollection(Clock{}, nil, gc.CollectionResult{}) // must not panic
}

func TestFixedRateSchedule(t *testing.T) {
	p, err := NewFixedRate(50)
	if err != nil {
		t.Fatal(err)
	}
	if p.ShouldCollect(Clock{Overwrites: 49}) {
		t.Error("collected before first interval")
	}
	if !p.ShouldCollect(Clock{Overwrites: 50}) {
		t.Error("did not collect at interval")
	}
	p.AfterCollection(Clock{Overwrites: 53}, nil, gc.CollectionResult{})
	if p.ShouldCollect(Clock{Overwrites: 102}) {
		t.Error("rescheduled interval not relative to collection time")
	}
	if !p.ShouldCollect(Clock{Overwrites: 103}) {
		t.Error("second interval not honored")
	}
}

func TestFixedRateValidation(t *testing.T) {
	for _, bad := range []int{0, -5} {
		if _, err := NewFixedRate(bad); err == nil {
			t.Errorf("interval %d accepted", bad)
		}
	}
}

func TestSAIOValidation(t *testing.T) {
	for _, bad := range []SAIOConfig{{Frac: 0}, {Frac: 1}, {Frac: -0.1}, {Frac: 1.2}, {Frac: 0.5, Hist: -1}} {
		if _, err := NewSAIO(bad); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

// TestSAIOIntervalNoHistory checks the paper's c_hist = 0 formula:
// ΔAppIO = CurrGCIO · (1 − f)/f.
func TestSAIOIntervalNoHistory(t *testing.T) {
	p, err := NewSAIO(SAIOConfig{Frac: 0.10, InitialInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if p.ShouldCollect(Clock{AppIO: 99}) {
		t.Error("collected before bootstrap interval")
	}
	if !p.ShouldCollect(Clock{AppIO: 100}) {
		t.Error("bootstrap interval ignored")
	}
	// Collection cost 40 I/Os at 10%: next interval = 40 * 9 = 360.
	p.AfterCollection(Clock{AppIO: 100}, nil, collRes(0, 25, 15, 0))
	if p.ShouldCollect(Clock{AppIO: 459}) {
		t.Error("collected before computed interval (460)")
	}
	if !p.ShouldCollect(Clock{AppIO: 460}) {
		t.Error("computed interval not honored at 460")
	}
	// A huge requested share clamps the interval to at least 1.
	q, err := NewSAIO(SAIOConfig{Frac: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	q.AfterCollection(Clock{AppIO: 100}, nil, collRes(0, 1, 0, 0))
	if !q.ShouldCollect(Clock{AppIO: 101}) {
		t.Error("minimum interval of 1 not applied")
	}
}

// TestSAIOIntervalWithHistory checks the windowed formula:
// ΔAppIO = (GCIO_hist + CurrGCIO)(1−f)/f − AppIO_hist.
func TestSAIOIntervalWithHistory(t *testing.T) {
	p, err := NewSAIO(SAIOConfig{Frac: 0.50, Hist: 2, InitialInterval: 10})
	if err != nil {
		t.Fatal(err)
	}
	// First collection at AppIO 10 costing 30: window {app 10, gc 30}.
	// ΔAppIO = (30 + 30)·1 − 10 = 50 → next at 60.
	p.AfterCollection(Clock{AppIO: 10}, nil, collRes(0, 30, 0, 0))
	if p.ShouldCollect(Clock{AppIO: 59}) || !p.ShouldCollect(Clock{AppIO: 60}) {
		t.Error("windowed interval #1 wrong")
	}
	// Second collection at AppIO 60 costing 10: window {app 10+50, gc
	// 30+10}. ΔAppIO = (40 + 10)·1 − 60 < 1 → clamp to 1 → next at 61.
	p.AfterCollection(Clock{AppIO: 60}, nil, collRes(0, 10, 0, 0))
	if !p.ShouldCollect(Clock{AppIO: 61}) {
		t.Error("windowed interval #2 wrong")
	}
	// Third collection: the first window entry (app 10, gc 30) must have
	// rolled out of the 2-entry window. Window now {app 50+1, gc 10+20}.
	// ΔAppIO = (30 + 20)·1 − 51 < 1 → 1.
	p.AfterCollection(Clock{AppIO: 61}, nil, collRes(0, 20, 0, 0))
	if !p.ShouldCollect(Clock{AppIO: 62}) {
		t.Error("windowed interval #3 wrong")
	}
}

func TestSAGAValidation(t *testing.T) {
	est := OracleEstimator{}
	bad := []SAGAConfig{
		{Frac: 0}, {Frac: 1}, {Frac: -0.2},
		{Frac: 0.1, Weight: 1.0},
		{Frac: 0.1, Weight: -0.5},
		{Frac: 0.1, DtMin: 100, DtMax: 10},
	}
	for _, cfg := range bad {
		if _, err := NewSAGA(cfg, est); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewSAGA(SAGAConfig{Frac: 0.1}, nil); err == nil {
		t.Error("nil estimator accepted")
	}
	p, err := NewSAGA(SAGAConfig{Frac: 0.1}, est)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.Weight != 0.7 || cfg.DtMin != 2 || cfg.DtMax != 1000 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

// TestSAGAIntervalFormula scripts two collections and checks
// Δt = (CurrColl − GarbDiff)/TotGarb'.
func TestSAGAIntervalFormula(t *testing.T) {
	h := &fakeHeap{db: 100000, parts: 4}
	p, err := NewSAGA(SAGAConfig{Frac: 0.10, Weight: 0.7, DtMin: 2, DtMax: 1000, InitialInterval: 50}, OracleEstimator{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.ShouldCollect(Clock{Overwrites: 50}) {
		t.Error("bootstrap not honored")
	}

	// Collection 1 at t=100: est = actGarb = 12000, collected = 5000.
	// No slope yet (first sample) → Δt = DtMax.
	h.actGarb = 12000
	h.collected = 5000
	p.AfterCollection(Clock{Overwrites: 100}, h, collRes(5000, 0, 0, 10))
	if p.LastInterval() != 1000 {
		t.Errorf("first interval = %d, want DtMax 1000", p.LastInterval())
	}
	if p.LastEstimate() != 12000 || p.LastTarget() != 10000 {
		t.Errorf("diagnostics: est=%v target=%v", p.LastEstimate(), p.LastTarget())
	}

	// Collection 2 at t=200: actGarb 13000, collected 11000 (this
	// collection reclaimed 6000). TotGarb went (5000+12000)=17000 →
	// (11000+13000)=24000 over Δt=100 → inst slope 70 B/ow (first sample
	// sets the smoothed slope directly).
	// Δt = (CurrColl − GarbDiff)/slope = (6000 − 3000)/70 ≈ 42.
	h.actGarb = 13000
	h.collected = 11000
	p.AfterCollection(Clock{Overwrites: 200}, h, collRes(6000, 0, 0, 10))
	if p.LastInterval() != 42 {
		t.Errorf("second interval = %d, want 42", p.LastInterval())
	}
	if got := p.LastSlope(); math.Abs(got-70) > 1e-9 {
		t.Errorf("slope = %v, want 70", got)
	}
	if p.ShouldCollect(Clock{Overwrites: 241}) || !p.ShouldCollect(Clock{Overwrites: 242}) {
		t.Error("interval not applied to schedule")
	}
}

func TestSAGAClamps(t *testing.T) {
	h := &fakeHeap{db: 100000, parts: 4}
	p, err := NewSAGA(SAGAConfig{Frac: 0.10}, OracleEstimator{})
	if err != nil {
		t.Fatal(err)
	}
	// Prime a positive slope.
	h.actGarb = 5000
	p.AfterCollection(Clock{Overwrites: 100}, h, collRes(1000, 0, 0, 1))
	h.actGarb = 50000
	h.collected = 2000
	p.AfterCollection(Clock{Overwrites: 200}, h, collRes(1000, 0, 0, 1))
	// Way over target with tiny reclaim: Δt would be negative → DtMin.
	h.actGarb = 90000
	h.collected = 2100
	p.AfterCollection(Clock{Overwrites: 300}, h, collRes(100, 0, 0, 1))
	if p.LastInterval() != 2 {
		t.Errorf("overdue interval = %d, want DtMin 2", p.LastInterval())
	}
	minC, maxC := p.ClampCounts()
	if minC == 0 {
		t.Errorf("clamp counts = %d/%d, want DtMin hits recorded", minC, maxC)
	}
}

func TestSAGANegativeEstimateTreatedAsZero(t *testing.T) {
	h := &fakeHeap{db: 100000, parts: 4, sumPO: -1} // forces negative FGS estimate
	fgs, err := NewFGSHB(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSAGA(SAGAConfig{Frac: 0.10}, fgs)
	if err != nil {
		t.Fatal(err)
	}
	p.AfterCollection(Clock{Overwrites: 10}, h, collRes(500, 0, 0, 1))
	if p.LastEstimate() != 0 {
		t.Errorf("estimate = %v, want clamped to 0", p.LastEstimate())
	}
}

func TestPolicyNames(t *testing.T) {
	fr, _ := NewFixedRate(100)
	saio, _ := NewSAIO(SAIOConfig{Frac: 0.25})
	fgs, _ := NewFGSHB(0.8)
	saga, _ := NewSAGA(SAGAConfig{Frac: 0.05}, fgs)
	for _, tc := range []struct{ got, want string }{
		{fr.Name(), "fixed(100)"},
		{saio.Name(), "saio(25%)"},
		{saga.Name(), "saga(5%,fgs-hb(0.80))"},
	} {
		if tc.got != tc.want {
			t.Errorf("name = %q, want %q", tc.got, tc.want)
		}
	}
	if saga.Estimator() != fgs {
		t.Error("Estimator() lost the configured estimator")
	}
}

func TestSAGAErrorMessages(t *testing.T) {
	_, err := NewSAGA(SAGAConfig{Frac: 2}, OracleEstimator{})
	if err == nil || !strings.Contains(err.Error(), "SAGA_Frac") {
		t.Errorf("error = %v", err)
	}
}

// TestSAIODriftWithAlternatingCosts reproduces the paper's §4.1.1 analysis:
// when successive collections alternate between expensive and cheap (100,
// 50, 100, ... I/Os), the ΔGCIO = CurrGCIO assumption mispredicts in both
// directions but the errors do not cancel — the achieved share drifts off
// the request — and history (c_hist > 0) exposes the misprediction to the
// controller and reduces the drift.
func TestSAIODriftWithAlternatingCosts(t *testing.T) {
	achieved := func(hist int) float64 {
		p, err := NewSAIO(SAIOConfig{Frac: 0.30, Hist: hist, InitialInterval: 100})
		if err != nil {
			t.Fatal(err)
		}
		costs := []uint64{100, 50}
		var appIO, gcIO uint64
		// Closed loop: run the app until the policy fires, pay the
		// alternating collection cost, let it reschedule.
		for i := 0; i < 400; i++ {
			for !p.ShouldCollect(Clock{AppIO: appIO, GCIO: gcIO}) {
				appIO++
			}
			cost := costs[i%len(costs)]
			gcIO += cost
			p.AfterCollection(Clock{AppIO: appIO, GCIO: gcIO}, nil,
				collRes(0, cost, 0, 0))
		}
		return float64(gcIO) / float64(gcIO+appIO)
	}
	noHist := achieved(0)
	withHist := achieved(8)
	t.Logf("requested 30%%: achieved %.4f (c_hist=0) vs %.4f (c_hist=8)", noHist, withHist)
	if noHist <= 0.30 {
		t.Errorf("expected upward drift with c_hist=0, got %.4f", noHist)
	}
	if math.Abs(withHist-0.30) >= math.Abs(noHist-0.30) {
		t.Errorf("history did not reduce drift: %.4f vs %.4f", withHist, noHist)
	}
}

// TestSAIOExactWithConstantCosts: with perfectly constant collection costs
// the assumption holds and the achieved share converges to the request.
func TestSAIOExactWithConstantCosts(t *testing.T) {
	p, err := NewSAIO(SAIOConfig{Frac: 0.20, InitialInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	var appIO, gcIO uint64
	for i := 0; i < 300; i++ {
		for !p.ShouldCollect(Clock{AppIO: appIO, GCIO: gcIO}) {
			appIO++
		}
		gcIO += 40
		p.AfterCollection(Clock{AppIO: appIO, GCIO: gcIO}, nil, collRes(0, 40, 0, 0))
	}
	share := float64(gcIO) / float64(gcIO+appIO)
	if math.Abs(share-0.20) > 0.005 {
		t.Errorf("constant-cost share = %.4f, want 0.20", share)
	}
}

// TestNewPolicy pins what the one name→policy constructor builds: the names
// the CLIs' own switches used to produce, every knob reaching the config it
// belongs to, and the estimator constructor called for exactly the policies
// that take one.
func TestNewPolicy(t *testing.T) {
	policyNames := []string{"saio", "saga", "pi", "coupled", "fixed", "never"}
	oracle := OracleEstimator{}
	for _, tc := range []struct {
		variant string
		params  PolicyParams
		est     func() (Estimator, error)
		names   map[string]string
		initial uint64 // InitialInterval the adaptive policies end up with
	}{
		{
			variant: "default values",
			params:  PolicyParams{Frac: 0.10, Interval: 200},
			est:     func() (Estimator, error) { return NewEstimator("fgs-hb", 0) },
			names: map[string]string{
				"saio": "saio(10%)", "saga": "saga(10%,fgs-hb(0.80))", "pi": "pi(10%,fgs-hb(0.80))",
				"coupled": "coupled(io=10%,garb=10%,fgs-hb(0.80))", "fixed": "fixed(200)", "never": "never",
			},
			initial: 100,
		},
		{
			variant: "explicit values",
			params:  PolicyParams{Frac: 0.25, Interval: 50, InitialInterval: 7, Hist: 3, SlopeRef: 40},
			est:     func() (Estimator, error) { return NewEstimator("cgs-cb", 0) },
			names: map[string]string{
				"saio": "saio(25%)", "saga": "saga(25%,cgs-cb)", "pi": "pi(25%,cgs-cb)",
				"coupled": "coupled(io=25%,garb=25%,cgs-cb)", "fixed": "fixed(50)", "never": "never",
			},
			initial: 7,
		},
		{
			variant: "explicit estimator",
			params:  PolicyParams{Frac: 0.05, Interval: 300},
			est:     func() (Estimator, error) { return oracle, nil },
			names: map[string]string{
				"saio": "saio(5%)", "saga": "saga(5%,oracle)", "pi": "pi(5%,oracle)",
				"coupled": "coupled(io=5%,garb=5%,oracle)", "fixed": "fixed(300)", "never": "never",
			},
			initial: 100,
		},
	} {
		for _, name := range policyNames {
			var built Estimator
			calls := 0
			p := tc.params
			p.Estimator = func() (Estimator, error) {
				calls++
				var err error
				built, err = tc.est()
				return built, err
			}
			pol, err := NewPolicy(name, p)
			if err != nil {
				t.Errorf("%s, %s: %v", tc.variant, name, err)
				continue
			}
			if pol.Name() != tc.names[name] {
				t.Errorf("%s, %s: built %q, want %q", tc.variant, name, pol.Name(), tc.names[name])
			}
			wantCalls := 0
			switch pol := pol.(type) {
			case *SAIO:
				if c := pol.Config(); c.InitialInterval != tc.initial || c.Hist != p.Hist {
					t.Errorf("%s, saio: config %+v", tc.variant, c)
				}
			case *SAGA:
				wantCalls = 1
				if c := pol.Config(); c.InitialInterval != tc.initial || c.SlopeRef != p.SlopeRef || pol.Estimator() != built {
					t.Errorf("%s, saga: config %+v, estimator %v", tc.variant, c, pol.Estimator())
				}
			case *PIController:
				wantCalls = 1
				if c := pol.Config(); c.InitialInterval != tc.initial || pol.est != built {
					t.Errorf("%s, pi: config %+v, estimator %v", tc.variant, c, pol.est)
				}
			case *Coupled:
				wantCalls = 1
				if c := pol.Config(); c.InitialInterval != tc.initial || pol.est != built {
					t.Errorf("%s, coupled: config %+v, estimator %v", tc.variant, c, pol.est)
				}
			case *FixedRate:
				if pol.Interval != uint64(p.Interval) {
					t.Errorf("%s, fixed: interval %d", tc.variant, pol.Interval)
				}
			case NeverCollect:
			default:
				t.Errorf("%s, %s: unexpected policy type %T", tc.variant, name, pol)
			}
			if calls != wantCalls {
				t.Errorf("%s, %s: estimator constructor called %d times, want %d", tc.variant, name, calls, wantCalls)
			}
		}
	}

	_, err := NewPolicy("wat", PolicyParams{})
	for _, name := range policyNames {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown policy: error %v does not list %q", err, name)
		}
	}
	if _, err := NewPolicy("saga", PolicyParams{Frac: 0.1}); err == nil {
		t.Error("saga built without an estimator")
	}
	if _, err := NewPolicy("pi", PolicyParams{Frac: 0.1, Estimator: func() (Estimator, error) {
		return NewEstimator("bogus", 0)
	}}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("estimator constructor error lost: %v", err)
	}
}
