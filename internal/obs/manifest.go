package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"odbgc/internal/trace"
)

// ManifestVersion identifies the manifest document format.
const ManifestVersion = 1

// TraceIdentity pins down exactly which event stream a run consumed.
type TraceIdentity struct {
	// Source describes where the trace came from: "file:<name>" or
	// "generated:<workload>".
	Source string `json:"source"`
	Events int    `json:"events"`
	// SHA256 is the hex digest of the trace's canonical binary encoding
	// (trace.WriteAll), so file-backed and in-memory traces with identical
	// events hash identically.
	SHA256 string `json:"sha256"`
}

// ArtifactDigest records an output file a run produced.
type ArtifactDigest struct {
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Summary is the manifest's headline metric digest: enough to compare two
// runs without parsing their event logs.
type Summary struct {
	Events      int    `json:"events"`
	Collections int    `json:"collections"`
	GCIOFrac    Float  `json:"gc_io_frac"`
	GarbageFrac Float  `json:"garbage_frac"`
	Reclaimed   uint64 `json:"reclaimed_bytes"`
	TotalIO     uint64 `json:"total_io"`
}

// Manifest is a run's provenance record: the exact configuration, seeds,
// and trace identity that produced a result, plus digests of the artifacts
// written — enough to reattribute anything in results/ to the run that made
// it, and to re-run it bit for bit.
type Manifest struct {
	ManifestVersion int    `json:"manifest_version"`
	SchemaVersion   int    `json:"event_schema_version"`
	Tool            string `json:"tool"` // emitting command, e.g. "gcsim"
	ToolVersion     string `json:"tool_version"`

	// Config holds the run's effective settings, flag-name keyed. Stored as
	// sorted key/value pairs so encoding never depends on map order.
	Config []KV `json:"config"`

	Seed      int64  `json:"seed"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	Policy    string `json:"policy,omitempty"`
	Selection string `json:"selection,omitempty"`

	Trace     *TraceIdentity   `json:"trace,omitempty"`
	Artifacts []ArtifactDigest `json:"artifacts,omitempty"`
	Summary   *Summary         `json:"summary,omitempty"`

	// SummarySHA256 is the hex digest of the Summary's canonical JSON — a
	// one-line fingerprint for "did these two runs agree".
	SummarySHA256 string `json:"summary_sha256,omitempty"`
}

// KV is one configuration entry.
type KV struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// ConfigKVs converts a settings map into sorted key/value pairs.
func ConfigKVs(m map[string]string) []KV {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kvs := make([]KV, 0, len(keys))
	for _, k := range keys {
		kvs = append(kvs, KV{Key: k, Value: m[k]})
	}
	return kvs
}

// FlagKVs snapshots every flag's effective value for a manifest's Config.
func FlagKVs(fs *flag.FlagSet) []KV {
	m := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return ConfigKVs(m)
}

// HashTrace computes the TraceIdentity digest of an in-memory trace by
// hashing its canonical binary encoding.
func HashTrace(tr *trace.Trace) (string, error) {
	h := sha256.New()
	if err := trace.WriteAll(h, tr); err != nil {
		return "", fmt.Errorf("obs: hashing trace: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// HashFile digests a file on disk, returning its size and hex SHA-256.
func HashFile(path string) (int64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer func() { _ = f.Close() }()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, "", fmt.Errorf("obs: hashing %s: %w", path, err)
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}

// AddArtifact hashes an output file and appends its digest, recording the
// base name so manifests stay comparable across directories.
func (m *Manifest) AddArtifact(path string) error {
	n, sum, err := HashFile(path)
	if err != nil {
		return err
	}
	m.Artifacts = append(m.Artifacts, ArtifactDigest{Path: filepath.Base(path), Bytes: n, SHA256: sum})
	return nil
}

// SetSummary attaches the metric summary and computes its digest.
func (m *Manifest) SetSummary(s Summary) error {
	b, err := json.Marshal(&s)
	if err != nil {
		return fmt.Errorf("obs: encoding summary: %w", err)
	}
	sum := sha256.Sum256(b)
	m.Summary = &s
	m.SummarySHA256 = hex.EncodeToString(sum[:])
	return nil
}

// Encode renders the manifest as indented, byte-deterministic JSON.
func (m *Manifest) Encode() ([]byte, error) {
	m.ManifestVersion = ManifestVersion
	m.SchemaVersion = SchemaVersion
	if m.ToolVersion == "" {
		m.ToolVersion = ToolVersion
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: encoding manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// Write encodes the manifest to path atomically (temp file + rename).
func (m *Manifest) Write(path string) error {
	b, err := m.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(tmp.Name()) }()
	if _, err := tmp.Write(b); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadManifest loads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("obs: decoding manifest %s: %w", path, err)
	}
	if m.ManifestVersion != ManifestVersion {
		return nil, fmt.Errorf("obs: manifest %s has version %d (have %d)", path, m.ManifestVersion, ManifestVersion)
	}
	return &m, nil
}
