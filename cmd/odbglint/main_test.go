package main

import (
	"encoding/json"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestLintTreeClean runs the multichecker over the whole module exactly the
// way `make lint` and CI do, so a lint failure anywhere reproduces locally
// with one command: go run ./cmd/odbglint ./...
func TestLintTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint run is slow")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", "run", "./cmd/odbglint", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("odbglint failed on %s:\n%s", root, out)
	}
	if s := strings.TrimSpace(string(out)); s != "" {
		t.Fatalf("odbglint succeeded but printed output:\n%s", s)
	}
}

// TestListAnalyzers asserts -list prints the nine analyzers, one per line,
// and nothing else.
func TestListAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("go run is slow")
	}
	cmd := exec.Command("go", "run", "./cmd/odbglint", "-list")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("odbglint -list: %v\n%s", err, out)
	}
	want := []string{
		"detrand", "maporder", "nopanic", "snapcover",
		"ctxflow", "errflow", "goleak", "hotpath", "lockcheck",
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	if !slices.Equal(got, want) {
		t.Errorf("odbglint -list names %v, want %v", got, want)
	}
}

// TestOnlyFlag pins the -only selector: a single analyzer runs clean over a
// package, and a typo is a hard error rather than an accidental no-op lint.
func TestOnlyFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("go run is slow")
	}
	root := moduleRoot(t)

	cmd := exec.Command("go", "run", "./cmd/odbglint", "-only", "goleak,ctxflow", "./internal/simerr/...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("odbglint -only goleak,ctxflow: %v\n%s", err, out)
	}

	// internal/sim carries //lint:allow directives for unselected analyzers
	// (detrand, goleak); running a subset must not misreport them as
	// naming unknown analyzers.
	cmd = exec.Command("go", "run", "./cmd/odbglint", "-only", "errflow", "./internal/sim/")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("odbglint -only errflow over a package with detrand allows: %v\n%s", err, out)
	}

	cmd = exec.Command("go", "run", "./cmd/odbglint", "-only", "nosuch", "./internal/simerr/...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("odbglint -only nosuch succeeded; want an unknown-analyzer error\n%s", out)
	}
	if !strings.Contains(string(out), "unknown analyzer") {
		t.Errorf("odbglint -only nosuch error does not name the problem:\n%s", out)
	}

	// The seven names retired in PR 22 are refused like any unknown name,
	// and the refusal says where the check went: no alias brings one back.
	for name, successor := range map[string]string{
		"detrand-transitive": "detrand",
		"hotalloc":           "hotpath",
		"hotbox":             "hotpath",
		"hotdefer":           "hotpath",
		"prealloc":           "hotpath",
		"guarded":            "deleted",
		"lifecycle":          "deleted",
	} {
		cmd = exec.Command("go", "run", "./cmd/odbglint", "-only", name, "./internal/simerr/...")
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("odbglint -only %s succeeded; the name is retired\n%s", name, out)
			continue
		}
		_, why, _ := strings.Cut(string(out), "(") // past the quoted name
		if !strings.Contains(string(out), "unknown analyzer") || !strings.Contains(why, successor) {
			t.Errorf("odbglint -only %s: refusal does not say %q:\n%s", name, successor, out)
		}
	}
}

// TestJSONOutput pins the -json contract: a clean run prints a well-formed
// (empty) JSON array, so CI can always upload the artifact and scripted
// consumers never special-case success.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("go run is slow")
	}
	cmd := exec.Command("go", "run", "./cmd/odbglint",
		"-json", "-only", "lockcheck,hotpath", "./internal/simerr/...")
	cmd.Dir = moduleRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("odbglint -json: %v\n%s", err, out)
	}
	var findings []struct {
		File     string   `json:"file"`
		Line     int      `json:"line"`
		Analyzer string   `json:"analyzer"`
		Message  string   `json:"message"`
		Chain    []string `json:"chain"`
	}
	if jerr := json.Unmarshal(out, &findings); jerr != nil {
		t.Fatalf("odbglint -json output is not a JSON array: %v\n%s", jerr, out)
	}
	if len(findings) != 0 {
		t.Errorf("clean package produced findings: %+v", findings)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}
