package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/fault"
	"odbgc/internal/simerr"
	"odbgc/internal/trace"
)

// sliceSource yields events from an in-memory trace.
type sliceSource struct {
	events []trace.Event
	i      int
}

func (s *sliceSource) Read() (trace.Event, error) {
	if s.i >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	e := s.events[s.i]
	s.i++
	return e, nil
}

// chaosPolicy builds the SAGA/FGS-HB policy used by the chaos suite, with
// the estimator signal corrupted when the profile asks for it.
func chaosPolicy(t *testing.T, profile fault.Profile, seed int64) core.RatePolicy {
	t.Helper()
	var est core.Estimator
	fgshb, err := core.NewFGSHB(0.8)
	if err != nil {
		t.Fatal(err)
	}
	est = fgshb
	if profile.Estimator() {
		est, err = fault.NewChaosEstimator(fgshb, profile, seed)
		if err != nil {
			t.Fatal(err)
		}
	}
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestChaosProfilesNeverPanicOrHang drives every registered fault profile
// through a full run. The contract: a chaos run either finishes (possibly
// degraded) or fails with a structured error — it never panics and never
// hangs past the deadline.
func TestChaosProfilesNeverPanicOrHang(t *testing.T) {
	tr := smallTrace(t, 3, 5)
	for _, name := range fault.ProfileNames() {
		t.Run(name, func(t *testing.T) {
			profile, err := fault.LookupProfile(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{
				Policy:       chaosPolicy(t, profile, 101),
				FaultProfile: profile,
				FaultSeed:    77,
			})
			if err != nil {
				t.Fatal(err)
			}

			var src EventSource
			if profile.Trace() {
				var buf bytes.Buffer
				if err := trace.WriteAll(&buf, tr); err != nil {
					t.Fatal(err)
				}
				data := buf.Bytes()
				corrupted, err := fault.CorruptTrace(bytes.NewReader(data), int64(len(data)), profile, 5)
				if err != nil {
					t.Fatal(err)
				}
				rd, err := trace.NewReader(corrupted)
				if err != nil {
					t.Logf("reader rejected corrupt header (structured): %v", err)
					return
				}
				rd.Lenient = true
				src = rd
			} else {
				src = &sliceSource{events: tr.Events}
			}

			// A panic fails the test by itself; a hang is cut at the next
			// event boundary by the deadline.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			res, err := s.RunStreamContext(ctx, src)
			switch {
			case errors.Is(err, simerr.ErrTimeout):
				t.Fatalf("chaos run hung: %v", err)
			case err != nil:
				t.Logf("structured failure (acceptable): %v", err)
			case res == nil:
				t.Fatal("nil result without error")
			default:
				t.Logf("finished: events=%d collections=%d garbFrac=%.4f",
					res.Events, len(res.Collections), res.GarbageFrac)
				if inj := s.Injector(); inj != nil {
					st := inj.Stats()
					t.Logf("injector: ops=%d injected=%d bursts=%d", st.Ops, st.Injected, st.Bursts)
					if profile.Storage() && st.Ops == 0 {
						t.Error("storage-fault profile never consulted the injector")
					}
				}
			}
		})
	}
}

// TestFlakyIORunsDeterministic: two chaos runs with the same profile and
// seeds must produce identical results — fault injection must not introduce
// nondeterminism.
func TestFlakyIORunsDeterministic(t *testing.T) {
	profile, err := fault.LookupProfile("flaky-io")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		tr := smallTrace(t, 3, 5)
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, core.OracleEstimator{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Policy: pol, FaultProfile: profile, FaultSeed: 13})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := encodeResult(t, run()), encodeResult(t, run())
	if !bytes.Equal(a, b) {
		t.Fatal("identical chaos runs produced different results")
	}
}

// TestSAGAFallbackAbsorbsSignalDropout is the regression test for graceful
// degradation: with the primary estimator's signal dropping out 30% of the
// time, the fallback estimator must trip to CGS/CB, keep SAGA fed with
// usable numbers (no bad-signal skips), and the run must finish with the
// garbage level still under control.
func TestSAGAFallbackAbsorbsSignalDropout(t *testing.T) {
	tr := smallTrace(t, 3, 6)
	primary, err := core.NewFGSHB(0.8)
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := fault.NewChaosEstimator(primary, fault.Profile{EstNaNProb: 0.30}, 9)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := core.NewFallbackEstimator(chaotic, core.NewCGSCB(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, fe)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MeasurementStarted {
		t.Fatal("measurement window never started")
	}
	if chaotic.Dropped() == 0 {
		t.Fatal("chaos estimator never dropped the signal; test proves nothing")
	}
	if fe.Trips() == 0 {
		t.Fatalf("fallback never tripped despite %d dropouts", chaotic.Dropped())
	}
	// The fallback absorbs every dropout, so SAGA itself never sees a bad
	// signal...
	if n := pol.BadSignals(); n != 0 {
		t.Errorf("SAGA saw %d bad signals through the fallback", n)
	}
	// ...and the garbage level stays in the same ballpark as a healthy run
	// (TestEndToEndSAGAOracle holds ~0.10; allow extra slack for the
	// coarse fallback estimator).
	if res.GarbageFrac > 0.35 {
		t.Errorf("garbage fraction %.4f: control lost under signal dropout", res.GarbageFrac)
	}
	t.Logf("dropouts=%d trips=%d recoveries=%d garbFrac=%.4f",
		chaotic.Dropped(), fe.Trips(), fe.Recoveries(), res.GarbageFrac)
}

// TestTruncatedTraceLenientDegradesGracefully: a torn trace in lenient mode
// finishes with the events that survived; strict mode fails with
// ErrTruncated. Either way, structured behavior.
func TestTruncatedTraceLenientDegradesGracefully(t *testing.T) {
	tr := smallTrace(t, 3, 7)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cut := data[:len(data)*3/4]

	newSim := func() *Simulator {
		pol, err := core.NewFixedRate(200)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Strict: the truncation surfaces as ErrTruncated.
	rd, err := trace.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	_, err = newSim().RunStream(rd)
	if !errors.Is(err, trace.ErrTruncated) {
		t.Fatalf("strict read of torn trace: err=%v, want ErrTruncated", err)
	}

	// Lenient: the run finishes on the surviving prefix.
	rd, err = trace.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	rd.Lenient = true
	res, err := newSim().RunStream(rd)
	if err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
	if !rd.Truncated() {
		t.Fatal("reader did not notice the truncation")
	}
	if res.Events == 0 || res.Events >= len(tr.Events) {
		t.Fatalf("lenient run saw %d events, want a proper prefix of %d", res.Events, len(tr.Events))
	}
}
