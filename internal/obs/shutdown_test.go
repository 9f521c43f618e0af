package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"odbgc/internal/simerr"
)

func TestShutdownStages(t *testing.T) {
	sd := NewShutdown(context.Background())

	select {
	case <-sd.Draining():
		t.Fatal("draining before any interrupt")
	default:
	}
	if err := sd.Context().Err(); err != nil {
		t.Fatalf("hard context dead before any interrupt: %v", err)
	}

	if stage := sd.Interrupt(); stage != 1 {
		t.Fatalf("first interrupt entered stage %d, want 1", stage)
	}
	select {
	case <-sd.Draining():
	default:
		t.Fatal("first interrupt did not close Draining")
	}
	if err := sd.Context().Err(); err != nil {
		t.Fatalf("first interrupt cancelled the hard context: %v", err)
	}

	if stage := sd.Interrupt(); stage != 2 {
		t.Fatalf("second interrupt entered stage %d, want 2", stage)
	}
	if err := sd.Context().Err(); err == nil {
		t.Fatal("second interrupt did not cancel the hard context")
	}
	// A third interrupt stays at stage 2 rather than panicking on a
	// re-close or re-cancel.
	if stage := sd.Interrupt(); stage != 2 {
		t.Fatalf("third interrupt entered stage %d, want 2", stage)
	}
}

func TestShutdownParentCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	sd := NewShutdown(parent)
	cancel()
	<-sd.Context().Done()
	if c := simerr.Classify(simerr.FromContext(sd.Context().Err())); c != simerr.ClassCanceled {
		t.Fatalf("parent cancellation classified as %s", c)
	}
}

func TestHealthzDraining(t *testing.T) {
	live := NewLive()
	srv := httptest.NewServer(Handler(live))
	defer srv.Close()

	code, _, body := get(t, srv, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz before drain: %d %q", code, body)
	}

	live.SetDraining(true)
	code, _, body = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("/healthz while draining: %d %q", code, body)
	}
	if !live.Draining() {
		t.Fatal("Draining() false after SetDraining(true)")
	}

	_, _, metrics := get(t, srv, "/metrics")
	if !strings.Contains(metrics, MetricDraining+" 1") {
		t.Errorf("/metrics missing %s 1:\n%s", MetricDraining, metrics)
	}

	_, _, statusz := get(t, srv, "/statusz")
	if !strings.Contains(statusz, `"draining": true`) {
		t.Errorf("/statusz missing draining flag:\n%s", statusz)
	}
}
