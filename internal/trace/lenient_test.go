package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"odbgc/internal/objstore"
)

// TestReaderErrTruncated checks that every way a stream can end without its
// trailer surfaces as ErrTruncated, distinguishable with errors.Is.
func TestReaderErrTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, validChain()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 2, 3, 5, len(full) / 3, len(full) / 2} {
		r, err := NewReader(bytes.NewReader(full[:len(full)-cut]))
		if err != nil {
			continue // header itself truncated; NewReader already failed
		}
		for {
			_, err = r.Read()
			if err != nil {
				break
			}
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestReaderLenientYieldsPrefix checks that a lenient read returns a prefix
// of the events before the cut, one that does not end in a build event.
func TestReaderLenientYieldsPrefix(t *testing.T) {
	chain := validChain()
	var buf bytes.Buffer
	if err := WriteAll(&buf, chain); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut at every byte position past the header; lenient decoding must
	// never error and must yield a prefix of the original events.
	for cut := 6; cut < len(full); cut++ {
		got, truncated, _, err := ReadAllLenient(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: lenient read failed: %v", cut, err)
		}
		if cut < len(full)-1 && !truncated {
			t.Fatalf("cut %d: truncation not reported", cut)
		}
		if n := got.Len(); n > 0 && got.Events[n-1].Builds() {
			t.Fatalf("cut %d: the prefix ends in %v, a build event", cut, got.Events[n-1].String())
		}
		if got.Len() > chain.Len() {
			t.Fatalf("cut %d: lenient read invented events: %d > %d", cut, got.Len(), chain.Len())
		}
		for i := range got.Events {
			if got.Events[i].String() != chain.Events[i].String() {
				t.Fatalf("cut %d: event %d = %q, want %q",
					cut, i, got.Events[i].String(), chain.Events[i].String())
			}
		}
	}
	// The full stream decodes without a truncation report.
	got, truncated, dropped, err := ReadAllLenient(bytes.NewReader(full))
	if err != nil || truncated || dropped != 0 {
		t.Fatalf("full stream: err=%v truncated=%v dropped=%d", err, truncated, dropped)
	}
	if got.Len() != chain.Len() {
		t.Fatalf("full stream decoded %d events, want %d", got.Len(), chain.Len())
	}
}

// TestReaderLenientKeepsOtherErrorsFatal ensures a lenient read does not
// paper over genuine corruption (an unknown event kind byte).
func TestReaderLenientKeepsOtherErrorsFatal(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Event{Kind: KindIdle, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Overwrite the trailer with a bogus kind byte followed by nothing.
	data[len(data)-1] = 0x7E
	if _, _, _, err := ReadAllLenient(bytes.NewReader(data)); err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("bogus kind byte in a lenient read: err = %v, want fatal decode error", err)
	}
}

// TestReaderTrailingGarbage: bytes after the trailer are ignored; the reader
// reports clean EOF, not truncation.
func TestReaderTrailingGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, validChain()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\x00\xde\xad\xbe\xef trailing garbage")
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("event %d: %v", n, err)
		}
		n++
	}
	if n != validChain().Len() {
		t.Errorf("decoded %d events, want %d", n, validChain().Len())
	}
}

// stream reads data through a Reader fed one byte per Read, so every event
// crosses a refill of its window. It returns the events and the error that
// ended the stream (nil for a clean end).
func stream(data []byte) ([]Event, error) {
	r, err := NewReader(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		return nil, err
	}
	var events []Event
	for {
		e, err := r.Read()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
}

// sameEvents compares two event lists, nil and empty alike.
func sameEvents(a, b []Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestDecodersAgreeOnEveryPrefix: ReadAll and a streaming Reader decode the
// same events from every prefix of a trace and reach the same verdict on it:
// complete, truncated, or refused. ReadAllLenient keeps the streamed events
// of a truncated prefix but its trailing run of build events, and says how
// many it dropped.
func TestDecodersAgreeOnEveryPrefix(t *testing.T) {
	chain := validChain()
	chain.Append(Event{Kind: KindPhase, Label: MakeLabel("Reorg1")})
	chain.Append(Event{Kind: KindIdle, Size: 3})
	chain.Append(Event{Kind: KindCreate, OID: 300, Class: objstore.ClassAtomicPart, Size: 1 << 20, Slots: 3})
	chain.Append(Event{Kind: KindOverwrite, OID: 300, Slot: 2, New: 1, Init: true})
	chain.Append(Event{Kind: KindOverwrite, OID: 1, Slot: 0, New: 300, Dead: []DeadObject{{OID: 129, Size: 1}, {OID: 4, Size: 70000}}})
	var buf bytes.Buffer
	if err := WriteAll(&buf, chain); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		data := full[:cut]
		strict, serr := ReadAll(bytes.NewReader(data))
		lenient, ltrunc, dropped, lerr := ReadAllLenient(bytes.NewReader(data))
		events, err := stream(data)
		if cut < 6 { // the header
			if serr == nil || lerr == nil || err == nil {
				t.Fatalf("cut %d: a header cut short was accepted: %v, %v, %v", cut, serr, lerr, err)
			}
			continue
		}
		complete := cut == len(full)
		if complete != (err == nil) || complete != (serr == nil) {
			t.Fatalf("cut %d: stream ended with %v, ReadAll with %v", cut, err, serr)
		}
		if !complete && (!errors.Is(err, ErrTruncated) || !errors.Is(serr, ErrTruncated)) {
			t.Fatalf("cut %d: stream ended with %v, ReadAll with %v; want truncation", cut, err, serr)
		}
		if lerr != nil || ltrunc != !complete {
			t.Fatalf("cut %d: lenient ReadAll: %v, truncated %v", cut, lerr, ltrunc)
		}
		if !sameEvents(events, chain.Events[:len(events)]) {
			t.Fatalf("cut %d: streamed events differ from the trace's", cut)
		}
		kept := len(events)
		for !complete && kept > 0 && events[kept-1].Builds() {
			kept--
		}
		if !sameEvents(lenient.Events, events[:kept]) || dropped != len(events)-kept {
			t.Fatalf("cut %d: lenient ReadAll kept %d events and dropped %d; the stream read %d, %d of them trailing builds",
				cut, len(lenient.Events), dropped, len(events), len(events)-kept)
		}
		if complete && !sameEvents(strict.Events, chain.Events) {
			t.Fatal("ReadAll decodes the whole trace differently")
		}
	}
}

// TestReaderGrowsItsWindow: an event longer than the Reader's window, fed
// one byte per Read, decodes whole and the same as ReadAll decodes it.
func TestReaderGrowsItsWindow(t *testing.T) {
	long := make([]DeadObject, window/2)
	for i := range long {
		long[i] = DeadObject{OID: objstore.OID(1000 + i), Size: 200 + i}
	}
	tr := validChain()
	tr.Append(Event{Kind: KindOverwrite, OID: 1, New: 1, Dead: long})
	tr.Append(Event{Kind: KindAccess, OID: 1})
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2*window {
		t.Fatalf("the long event is %d bytes, want it to outgrow the window twice", buf.Len())
	}
	events, err := stream(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	all, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, tr.Events) || !reflect.DeepEqual(all.Events, tr.Events) {
		t.Fatal("a trace with an event longer than the window did not round-trip")
	}
}
