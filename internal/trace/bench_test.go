package trace_test

import (
	"bytes"
	"testing"

	"odbgc/internal/oo7"
	"odbgc/internal/trace"
)

// BenchmarkTraceCodec times the binary format on the seed-1 OO7 Small'
// connectivity-3 trace, writing it and reading it back apart: the two halves
// of the repository benchmark's trace.encode_mb_per_s and
// trace.decode_mb_per_s.
func BenchmarkTraceCodec(b *testing.B) {
	tr, err := oo7.FullTrace(oo7.SmallPrime(3), 1)
	if err != nil {
		b.Fatal(err)
	}
	var raw bytes.Buffer
	if err := trace.WriteAll(&raw, tr); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		var w bytes.Buffer
		b.SetBytes(int64(raw.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			if err := trace.WriteAll(&w, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(raw.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.ReadAll(bytes.NewReader(raw.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoadTrace times what the repository benchmark's replay workloads
// report as setup_s, in process: generate the seed-1 OO7 trace, write it,
// read it back and validate it.
func BenchmarkLoadTrace(b *testing.B) {
	b.ReportAllocs()
	var raw bytes.Buffer
	for i := 0; i < b.N; i++ {
		tr, err := oo7.FullTrace(oo7.SmallPrime(3), 1)
		if err != nil {
			b.Fatal(err)
		}
		raw.Reset()
		if err := trace.WriteAll(&raw, tr); err != nil {
			b.Fatal(err)
		}
		if tr, err = trace.ReadAll(&raw); err != nil {
			b.Fatal(err)
		}
		if err := trace.Validate(tr); err != nil {
			b.Fatal(err)
		}
	}
}
