package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"odbgc/internal/objstore"
)

// randomEvent builds an arbitrary structurally-valid event.
func randomEvent(rng *rand.Rand) Event {
	kinds := []Kind{KindCreate, KindAccess, KindUpdate, KindOverwrite, KindPhase, KindRoot}
	e := Event{Kind: kinds[rng.Intn(len(kinds))]}
	oid := func() objstore.OID { return objstore.OID(1 + rng.Intn(1000)) }
	switch e.Kind {
	case KindCreate:
		e.OID = oid()
		e.Class = objstore.Class(rng.Intn(8))
		e.Size = rng.Intn(10000)
		e.Slots = rng.Intn(30)
	case KindAccess, KindUpdate:
		e.OID = oid()
	case KindOverwrite:
		e.OID = oid()
		e.Slot = rng.Intn(30)
		e.Init = rng.Intn(4) == 0
		if e.Init {
			e.New = oid()
		} else {
			if rng.Intn(2) == 0 {
				e.Old = oid()
			}
			if rng.Intn(2) == 0 {
				e.New = oid()
			}
			for i := 0; i < rng.Intn(4); i++ {
				e.Dead = append(e.Dead, DeadObject{OID: oid(), Size: rng.Intn(5000)})
			}
		}
	case KindPhase:
		labels := []string{"GenDB", "Reorg1", "Traverse", "Reorg2", "Custom/π"}
		e.Label = MakeLabel(labels[rng.Intn(len(labels))])
	case KindRoot:
		e.OID = oid()
		e.Size = rng.Intn(2)
	}
	return e
}

func eventsEqual(a, b *Event) bool {
	if a.Kind != b.Kind || a.OID != b.OID || a.Class != b.Class ||
		a.Size != b.Size || a.Slots != b.Slots || a.Slot != b.Slot ||
		a.Old != b.Old || a.New != b.New || a.Label != b.Label || a.Init != b.Init {
		return false
	}
	if len(a.Dead) != len(b.Dead) {
		return false
	}
	for i := range a.Dead {
		if a.Dead[i] != b.Dead[i] {
			return false
		}
	}
	return true
}

// normalize clears fields the codec legitimately does not preserve per kind
// (e.g. Size on an access event can never round-trip because it is not
// written). randomEvent never sets those, so this is identity; it exists to
// make the property's contract explicit.
func normalize(e Event) Event { return e }

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		in := &Trace{}
		for i := 0; i < int(n%64)+1; i++ {
			in.Append(normalize(randomEvent(rng)))
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, in); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		out, err := ReadAll(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		if out.Len() != in.Len() {
			return false
		}
		for i := range in.Events {
			if !eventsEqual(&in.Events[i], &out.Events[i]) {
				t.Logf("event %d: %v != %v", i, in.Events[i], out.Events[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("NOPE\x01\x00"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic error = %v", err)
	}
}

func TestReaderRejectsBadVersion(t *testing.T) {
	_, err := NewReader(strings.NewReader("ODBT\xff\x00"))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version error = %v", err)
	}
}

func TestReaderRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, validChain()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop off the trailer and some payload: reads must fail, not EOF
	// cleanly.
	for _, cut := range []int{1, 3, len(full) / 2} {
		r, err := NewReader(bytes.NewReader(full[:len(full)-cut]))
		if err != nil {
			continue // header itself truncated is fine too
		}
		for {
			_, err = r.Read()
			if err != nil {
				break
			}
		}
		if err == io.EOF {
			t.Errorf("cut %d: truncated stream read cleanly to EOF", cut)
		}
	}
}

func TestReaderEOFAfterTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, &Trace{}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("empty trace first read = %v, want EOF", err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("repeated read after EOF = %v, want EOF", err)
	}
}

func TestWriterRejectsAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: KindAccess, OID: 1}
	if err := w.Write(&ev); err == nil {
		t.Error("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ev := Event{Kind: KindAccess, OID: objstore.OID(i + 1)}
		if err := w.Write(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 5 {
		t.Errorf("Count = %d, want 5", w.Count())
	}
}

// TestReadAllocatesNothing: decoding an event allocates nothing, kind by kind
// (a kind that allocated while the others did not would vanish in a mixed
// stream's per-event average). A dead list is carved from the reader's arena,
// one chunk per 1 024 entries, and a phase label once interned is looked up
// in place.
func TestReadAllocatesNothing(t *testing.T) {
	const n = 1000
	for _, e := range []Event{
		{Kind: KindCreate, OID: 9, Class: objstore.ClassAtomicPart, Size: 100, Slots: 3},
		{Kind: KindAccess, OID: 9},
		{Kind: KindUpdate, OID: 9},
		{Kind: KindOverwrite, OID: 9, Slot: 1, Old: 4, New: 5, Dead: []DeadObject{{OID: 4, Size: 100}}},
		{Kind: KindRoot, OID: 9, Size: 1},
		{Kind: KindIdle, Size: 3},
		{Kind: KindPhase, Label: MakeLabel("Reorg1")},
	} {
		t.Run(e.Kind.String(), func(t *testing.T) {
			var buf bytes.Buffer
			w, err := NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= n; i++ { // AllocsPerRun reads one more as its warm-up
				if err := w.Write(&e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(n, func() {
				if _, err := r.Read(); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("%v allocations per %v event, want 0", a, e.Kind)
			}
		})
	}
}

// TestDecodedLabelsAreBounded: the intern table outlives every trace, so the
// decoder refuses a trace that would grow it past maxLabels texts, and interns
// nothing past the bound. Writer and reader each run on an emptied table
// (which holds the empty text), and the process's table is put back after.
func TestDecodedLabelsAreBounded(t *testing.T) {
	index, text := labels.index, labels.text
	defer func() { labels.index, labels.text = index, text }()
	empty := func() { labels.index, labels.text = map[string]Label{"": 0}, []string{""} }
	for _, tc := range []struct {
		name string
		fit  int // distinct labels that fit
		size int // bytes per label
	}{
		{"short", maxLabels - 1, 8},
		{"long", maxLabels - 1, 1 << 10},
	} {
		empty() // the writer's
		var b Builder
		for i := 0; i <= tc.fit; i++ {
			b.Append(Event{Kind: KindPhase, Label: MakeLabel(fmt.Sprintf("%0*d", tc.size, i))})
		}
		var bin bytes.Buffer
		if err := WriteAll(&bin, b.Trace()); err != nil {
			t.Fatal(err)
		}
		empty() // the reader's
		if _, err := ReadAll(&bin); !errors.Is(err, errTooManyLabels) {
			t.Errorf("%s: %d distinct labels read: %v, want %v", tc.name, tc.fit+1, err, errTooManyLabels)
		}
		if got := len(labels.text); got != 1+tc.fit {
			t.Errorf("%s: the table holds %d texts after the refusal, want %d", tc.name, got, 1+tc.fit)
		}
	}
}
