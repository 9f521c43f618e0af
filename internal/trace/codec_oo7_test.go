package trace_test

import (
	"bytes"
	"testing"
	"unsafe"

	"odbgc/internal/oo7"
	"odbgc/internal/trace"
)

// TestBinaryRoundTripOO7 round-trips a full OO7 trace through the binary
// codec and revalidates it. Lives in an external test package because the
// OO7 generator depends on the trace package.
func TestBinaryRoundTripOO7(t *testing.T) {
	tr, err := oo7.FullTrace(oo7.SmallPrime(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	t.Logf("binary size: %d bytes for %d events (%.1f B/event)",
		buf.Len(), tr.Len(), float64(buf.Len())/float64(tr.Len()))
	out, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != tr.Len() {
		t.Fatalf("length mismatch: %d != %d", out.Len(), tr.Len())
	}
	for i := range tr.Events {
		if tr.Events[i].String() != out.Events[i].String() {
			t.Fatalf("event %d differs: %v vs %v", i, tr.Events[i].String(), out.Events[i].String())
		}
	}
	if err := trace.Validate(out); err != nil {
		t.Fatalf("round-tripped trace invalid: %v", err)
	}
}

// TestReadAllAllocationBound: decoding the seed-1 OO7 trace allocates at most
// 1.2× the bytes of the trace it returns. The events and the dead lists are
// each allocated once, exactly sized, and decoded in place; the rest is the
// input, read whole (1.09× in all). Decoding into chunks and copying them
// into the result read 2.0×; growing one slice by append read 5.8×.
func TestReadAllAllocationBound(t *testing.T) {
	tr, err := oo7.FullTrace(oo7.SmallPrime(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := trace.WriteAll(&raw, tr); err != nil {
		t.Fatal(err)
	}
	var out *trace.Trace
	allocated := trace.AllocatedBytes(func() { out, err = trace.ReadAll(bytes.NewReader(raw.Bytes())) })
	if err != nil {
		t.Fatal(err)
	}
	result := uint64(len(out.Events)) * uint64(unsafe.Sizeof(trace.Event{}))
	for i := range out.Events {
		result += uint64(len(out.Events[i].Dead)) * uint64(unsafe.Sizeof(trace.DeadObject{}))
	}
	t.Logf("ReadAll allocated %d bytes for a %d-byte trace (%.2fx)", allocated, result, float64(allocated)/float64(result))
	if 5*allocated > 6*result {
		t.Errorf("ReadAll allocated %d bytes, more than 1.2x the %d it returned", allocated, result)
	}
	if cap(out.Events) != len(out.Events) {
		t.Errorf("decoded trace has len %d, cap %d", len(out.Events), cap(out.Events))
	}
}
