package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	live := NewLive()
	emitSample(live)
	srv := httptest.NewServer(Handler(live))
	defer srv.Close()

	code, ctype, body := get(t, srv, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz: %d %q", code, body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/healthz content type %q", ctype)
	}

	code, ctype, body = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		"# TYPE odbgc_control_steps_total counter",
		"odbgc_gc_collections_total 1",
		"# TYPE odbgc_control_interval_overwrites histogram",
		`odbgc_control_interval_overwrites_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, ctype, body = get(t, srv, "/statusz")
	if code != http.StatusOK || ctype != "application/json" {
		t.Fatalf("/statusz: %d %q", code, ctype)
	}
	var st struct {
		Status
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if !st.Running {
		t.Error("/statusz: a started run is not reported running")
	}
	// Live folds no run_end (a serving run sends none): the count is the
	// last heartbeat's.
	if st.Policy != "saga(10%,fgs-hb(0.80))" || st.Collections != 1 {
		t.Errorf("/statusz: policy %q collections %d", st.Policy, st.Collections)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("/statusz: negative uptime %v", st.UptimeSeconds)
	}

	code, _, body = get(t, srv, "/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline: %d %q", code, body)
	}
	code, _, _ = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/: %d", code)
	}
}

func TestListenAndServe(t *testing.T) {
	live := NewLive()
	bound, stop, err := ListenAndServe("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over listener: %d", resp.StatusCode)
	}
}
