package server

import (
	"context"
	"testing"
	"time"

	"odbgc/internal/fault"
)

func TestLoadConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  LoadConfig
	}{
		{"no addr", LoadConfig{Rate: 10, Duration: time.Second}},
		{"zero rate", LoadConfig{Addr: "x", Duration: time.Second}},
		{"negative rate", LoadConfig{Addr: "x", Rate: -1, Duration: time.Second}},
		{"zero duration", LoadConfig{Addr: "x", Rate: 10}},
		{"negative workers", LoadConfig{Addr: "x", Rate: 10, Duration: time.Second, Workers: -2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunLoad(context.Background(), tc.cfg); err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
		})
	}
}

// TestRunLoadAgainstServer drives a real server with the full chaos profile
// and checks the report is coherent: arrivals flow, successes happen, chaos
// is injected, and everything shuts down without leaks (-race covers the
// data paths).
func TestRunLoadAgainstServer(t *testing.T) {
	ts := startServer(t,
		Config{MaxSessions: 32},
		EngineConfig{QueueDepth: 8, ServiceDelay: time.Millisecond})

	profile, err := fault.LookupNetProfile("net-chaos")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	rep, err := RunLoad(ctx, LoadConfig{
		Addr:     ts.addr,
		Rate:     400,
		Duration: 500 * time.Millisecond,
		Workers:  4,
		Profile:  profile,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	if rep.OK == 0 {
		t.Error("no successful requests against a healthy server")
	}
	if rep.MalformedSent+rep.Disconnects+rep.Slow == 0 {
		t.Error("net-chaos injected nothing across hundreds of arrivals")
	}
	if rep.AchievedRPS <= 0 {
		t.Errorf("achieved rps %v, want > 0", rep.AchievedRPS)
	}
	if rep.LatencyP50Ms <= 0 || rep.LatencyMaxMs < rep.LatencyP50Ms {
		t.Errorf("latency percentiles incoherent: p50=%v max=%v", rep.LatencyP50Ms, rep.LatencyMaxMs)
	}
	if rep.LatencyP99Ms < rep.LatencyP90Ms || rep.LatencyP90Ms < rep.LatencyP50Ms {
		t.Errorf("percentiles not monotone: p50=%v p90=%v p99=%v", rep.LatencyP50Ms, rep.LatencyP90Ms, rep.LatencyP99Ms)
	}

	// The server survived the chaos: still answering, still consistent.
	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	st, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects == 0 {
		t.Error("no objects survive the load run; workers create hubs at minimum")
	}
	if got := ts.m().malformed.Value(); rep.MalformedSent > 0 && got == 0 {
		t.Errorf("client sent %d malformed frames but server counted none", rep.MalformedSent)
	}

	ts.beginDrain()
	ts.waitFinished(t)
	if ts.err != nil {
		t.Fatalf("drain after load returned %v", ts.err)
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 0.5); got != 6 {
		t.Fatalf("p50 = %v, want 6", got)
	}
	if got := percentile(s, 0.99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
}
