package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// environment is recorded beside the numbers of every run, so two result
// files can be told apart by more than their values.
type environment struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	DataDir     string  `json:"data_dir"`
	DataDirFS   string  `json:"data_dir_fs"`
	SyncStallUs float64 `json:"modelled_sync_stall_us"`
	Seconds     float64 `json:"seconds"`
}

func captureEnv(rc runConfig) *environment {
	return &environment{
		Commit:      buildCommit(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		DataDir:     rc.outDir,
		DataDirFS:   fsTypeOf(rc.outDir),
		SyncStallUs: float64(syncStall.Microseconds()),
		Seconds:     rc.seconds.Seconds(),
	}
}

// buildCommit is the commit run.sh found the checkout at; the driver's
// checkout is not a git repository and has none.
func buildCommit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
