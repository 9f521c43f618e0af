package main

import (
	"bytes"
	"context"
	"testing"

	"odbgc/internal/simerr"
)

// TestGcsimInterruptWithoutCheckpoint checks that an interrupted run fails
// with a canceled-classified error instead of printing a partial summary.
func TestGcsimInterruptWithoutCheckpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := run(ctx, nil, &stdout, &stderr)
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if simerr.Classify(err) != simerr.ClassCanceled {
		t.Errorf("error %v classified %s, want canceled", err, simerr.Classify(err))
	}
	if bytes.Contains(stdout.Bytes(), []byte("collections:")) {
		t.Errorf("interrupted run printed a summary:\n%s", stdout.String())
	}
}
