package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

// FuzzReader ensures the binary decoder never panics or over-allocates on
// corrupted input: it must either produce events or fail with an error, and
// ReadAll must agree with the streaming Reader.
func FuzzReader(f *testing.F) {
	// Seed with a valid encoding and a few mutations.
	var buf bytes.Buffer
	if err := WriteAll(&buf, validChain()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("ODBT\x01\x00"))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 10 {
		mutated[8] ^= 0xff
	}
	f.Add(mutated)
	// Truncated headers: partial magic and magic without a version.
	f.Add([]byte("O"))
	f.Add([]byte("ODB"))
	f.Add([]byte("ODBT"))
	f.Add([]byte("ODBT\x01"))
	// Mid-varint EOF: a create event cut inside a multi-byte varint. The
	// OID varint 0x80 0x80 ... has continuation bits set with no terminator.
	f.Add([]byte{'O', 'D', 'B', 'T', 0x01, 0x00, byte(KindCreate), 0x80, 0x80, 0x80})
	// Mid-event EOF right after the kind byte.
	f.Add([]byte{'O', 'D', 'B', 'T', 0x01, 0x00, byte(KindOverwrite)})
	// A dead-list count the stream ends before backing with one entry.
	f.Add(hugeDeadList)
	// Trailing garbage after a valid trailer.
	f.Add(append(append([]byte(nil), valid...), 0x00, 0xde, 0xad, 0xbe, 0xef))
	// Trailer replaced by an unknown kind byte.
	if len(valid) > 0 {
		noTrailer := append([]byte(nil), valid...)
		noTrailer[len(noTrailer)-1] = 0x7e
		f.Add(noTrailer)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// ReadAll decodes the same stream whole, with the same decoder: it
		// must reach the stream's verdict.
		all, allErr := ReadAll(bytes.NewReader(data))
		for i := 0; i < 1<<20; i++ {
			_, err := r.Read()
			if err == io.EOF {
				if allErr != nil || all.Len() != i {
					t.Fatalf("stream read %d events cleanly; ReadAll %v", i, allErr)
				}
				return
			}
			if err != nil {
				if allErr == nil || errors.Is(allErr, ErrTruncated) != errors.Is(err, ErrTruncated) {
					t.Fatalf("stream failed with %v; ReadAll with %v", err, allErr)
				}
				// A lenient read of the same bytes must succeed whenever the
				// strict error was truncation, and keep the events the stream
				// read before the cut but the trailing build events it drops.
				if errors.Is(err, ErrTruncated) {
					lenient, truncated, dropped, lerr := ReadAllLenient(bytes.NewReader(data))
					if lerr != nil || !truncated {
						t.Fatalf("lenient read of truncated input: truncated %v, err %v", truncated, lerr)
					}
					if lenient.Len()+dropped != i {
						t.Fatalf("lenient read kept %d events and dropped %d; the stream read %d",
							lenient.Len(), dropped, i)
					}
				}
				return
			}
		}
		t.Fatal("reader produced over a million events from fuzz input")
	})
}

// hugeDeadList is a 16-byte stream — header, one overwrite event whose
// dead-list count varint says 2^24, end of file — the largest count the
// plausibility bound lets through, backed by no entry at all.
var hugeDeadList = []byte{'O', 'D', 'B', 'T', 0x01, 0x00,
	byte(KindOverwrite), 1, 0, 2, 0, 0, // OID, slot, old, new, flags
	0x80, 0x80, 0x80, 0x08} // count = 1<<24

// allocatedBytes returns the heap bytes fn allocated, live or not.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDamagedDeadListLengthSizesNothing: a dead-list count is a claim until
// its entries arrive. The decoder used to allocate the claimed 2^24 entries
// (256 MiB) before reading the first one; the list now grows with the bytes
// actually read, and the stream is reported truncated for what it is.
func TestDamagedDeadListLengthSizesNothing(t *testing.T) {
	const budget = 1 << 20
	var err error
	if n := allocatedBytes(func() { _, err = ReadAll(bytes.NewReader(hugeDeadList)) }); n >= budget {
		t.Errorf("ReadAll allocated %d bytes on a 16-byte stream, want < %d", n, budget)
	}
	if !errors.Is(err, ErrTruncated) || !errors.Is(err, simerr.ErrCorruptTrace) {
		t.Errorf("ReadAll = %v, want an error wrapping ErrTruncated and ErrCorruptTrace", err)
	}

	var tr *Trace
	var truncated bool
	if n := allocatedBytes(func() { tr, truncated, _, err = ReadAllLenient(bytes.NewReader(hugeDeadList)) }); n >= budget {
		t.Errorf("ReadAllLenient allocated %d bytes on a 16-byte stream, want < %d", n, budget)
	}
	if err != nil || !truncated || tr.Len() != 0 {
		t.Errorf("ReadAllLenient = %d events, truncated %v, err %v; want 0 events, truncated, no error",
			tr.Len(), truncated, err)
	}
}

// TestLongDeadListRoundTrips: a list longer than one arena chunk takes the
// grow-as-decoded path and must come back whole, without disturbing the
// lists carved from the arena on either side of it.
func TestLongDeadListRoundTrips(t *testing.T) {
	n := deadArenaChunk + 37
	tr := &Trace{}
	tr.Append(Event{Kind: KindCreate, OID: 1, Size: 8, Slots: 1})
	tr.Append(Event{Kind: KindOverwrite, OID: 1, New: 1, Dead: []DeadObject{{OID: 7, Size: 70}}})
	long := make([]DeadObject, n)
	for i := range long {
		long[i] = DeadObject{OID: objstore.OID(100 + i), Size: i}
	}
	tr.Append(Event{Kind: KindOverwrite, OID: 1, Old: 1, Dead: long})
	tr.Append(Event{Kind: KindOverwrite, OID: 1, New: 1, Dead: []DeadObject{{OID: 8, Size: 80}}})
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatal("trace with a dead list longer than an arena chunk did not round-trip")
	}
}

// farCreate encodes the valid chain with one bit of its second create's OID
// flipped: the event decodes, and names an object 2^58 OIDs past the horizon.
func farCreate(t testing.TB) []byte {
	tr := validChain()
	tr.Events[2].OID ^= 1 << 58
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValidateRejectsFarOID: replaying that trace fails as a corrupt trace
// instead of allocating a table directory reaching to the damaged OID.
func TestValidateRejectsFarOID(t *testing.T) {
	tr, err := ReadAll(bytes.NewReader(farCreate(t)))
	if err != nil {
		t.Fatal(err)
	}
	err = Validate(tr)
	if !errors.Is(err, simerr.ErrCorruptTrace) || !errors.Is(err, objstore.ErrOIDRange) {
		t.Fatalf("Validate = %v, want a corrupt-trace error wrapping ErrOIDRange", err)
	}
}

// TestValidateRejectsDamagedSlotCount: a create whose slot-count varint
// decodes to 2^50 survives the codec (the count is not negative) and fails
// the store replay as a corrupt trace, where it used to panic in makeslice.
func TestValidateRejectsDamagedSlotCount(t *testing.T) {
	damaged := validChain()
	damaged.Events[2].Slots = 1 << 50
	var buf bytes.Buffer
	if err := WriteAll(&buf, damaged); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	err = Validate(tr)
	if !errors.Is(err, simerr.ErrCorruptTrace) || !errors.Is(err, objstore.ErrSlotRange) {
		t.Fatalf("Validate = %v, want a corrupt-trace error wrapping ErrSlotRange", err)
	}
}

// FuzzRoundTrip checks that any trace assembled from decoded events
// re-encodes and re-decodes to the same event strings.
func FuzzRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, validChain()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(farCreate(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decodes may be replayed: validation must reject it or
		// accept it, never size the object table by a damaged OID.
		_ = Validate(tr)
		var once bytes.Buffer
		if err := WriteAll(&once, tr); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		again, err := ReadAll(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Len() != tr.Len() {
			t.Fatalf("round trip changed length: %d -> %d", tr.Len(), again.Len())
		}
		for i := range tr.Events {
			if tr.Events[i].String() != again.Events[i].String() {
				t.Fatalf("event %d changed: %q -> %q", i, tr.Events[i].String(), again.Events[i].String())
			}
		}
	})
}
