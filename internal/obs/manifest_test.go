package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/trace"
)

func sampleManifest(t *testing.T) *Manifest {
	t.Helper()
	m := &Manifest{
		Tool: "gcsim",
		Config: ConfigKVs(map[string]string{
			"frac":     "0.10",
			"workload": "oo7",
			"seed":     "42",
		}),
		Seed:      42,
		Policy:    "saio(10%)",
		Selection: "updated-pointer",
	}
	if err := m.SetSummary(Summary{Events: 100, Collections: 7, Reclaimed: 4096}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestEncodeDeterministic(t *testing.T) {
	a, err := sampleManifest(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleManifest(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("identical manifests encoded differently:\n%s\n---\n%s", a, b)
	}
	if !bytes.HasSuffix(a, []byte("\n")) {
		t.Error("manifest does not end in newline")
	}
	// Config keys sort regardless of the map's iteration order.
	text := string(a)
	if strings.Index(text, `"frac"`) > strings.Index(text, `"seed"`) ||
		strings.Index(text, `"seed"`) > strings.Index(text, `"workload"`) {
		t.Errorf("config keys not sorted:\n%s", text)
	}
}

func TestManifestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()

	artifact := filepath.Join(dir, "summary.csv")
	if err := os.WriteFile(artifact, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := sampleManifest(t)
	if err := m.AddArtifact(artifact); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "gcsim" || back.Seed != 42 || back.Policy != "saio(10%)" {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if back.SummarySHA256 == "" || back.SummarySHA256 != m.SummarySHA256 {
		t.Errorf("summary digest mismatch: %q vs %q", back.SummarySHA256, m.SummarySHA256)
	}
	if len(back.Artifacts) != 1 {
		t.Fatalf("artifacts: %+v", back.Artifacts)
	}
	art := back.Artifacts[0]
	if art.Path != "summary.csv" || art.Bytes != 8 || len(art.SHA256) != 64 {
		t.Errorf("artifact digest: %+v", art)
	}
}

func TestReadManifestRejectsUnknownVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, []byte(`{"manifest_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("unknown version accepted: %v", err)
	}
}

func TestHashTrace(t *testing.T) {
	mk := func(label string) *trace.Trace {
		tr := &trace.Trace{}
		tr.Append(trace.Event{Kind: trace.KindPhase, Label: trace.MakeLabel(label)})
		return tr
	}
	a1, err := HashTrace(mk("Gen"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := HashTrace(mk("Gen"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashTrace(mk("Other"))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("identical traces hash differently")
	}
	if a1 == b {
		t.Error("distinct traces hash identically")
	}
	if len(a1) != 64 {
		t.Errorf("digest length %d", len(a1))
	}
}
