package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"odbgc/internal/objstore"
)

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name    string
		ev      Event
		wantErr string
	}{
		{"valid create", Event{Kind: KindCreate, OID: 1, Size: 10, Slots: 2}, ""},
		{"create nil oid", Event{Kind: KindCreate, Size: 10}, "nil OID"},
		{"create negative size", Event{Kind: KindCreate, OID: 1, Size: -1}, "negative"},
		{"valid access", Event{Kind: KindAccess, OID: 3}, ""},
		{"access nil", Event{Kind: KindAccess}, "nil OID"},
		{"update nil", Event{Kind: KindUpdate}, "nil OID"},
		{"valid overwrite", Event{Kind: KindOverwrite, OID: 1, Slot: 0, New: 2}, ""},
		{"overwrite nil src", Event{Kind: KindOverwrite, Slot: 0}, "nil OID"},
		{"overwrite negative slot", Event{Kind: KindOverwrite, OID: 1, Slot: -1}, "negative slot"},
		{"init with old", Event{Kind: KindOverwrite, OID: 1, Old: 5, Init: true}, "non-nil old"},
		{"init with dead", Event{Kind: KindOverwrite, OID: 1, Init: true,
			Dead: []DeadObject{{OID: 2, Size: 1}}}, "garbage"},
		{"dead nil oid", Event{Kind: KindOverwrite, OID: 1,
			Dead: []DeadObject{{Size: 1}}}, "invalid dead"},
		{"valid phase", Event{Kind: KindPhase, Label: MakeLabel("GenDB")}, ""},
		{"phase empty", Event{Kind: KindPhase}, "empty label"},
		{"valid root", Event{Kind: KindRoot, OID: 1, Size: 1}, ""},
		{"root bad size", Event{Kind: KindRoot, OID: 1, Size: 2}, "want 0 or 1"},
		{"root nil", Event{Kind: KindRoot, Size: 1}, "nil OID"},
		{"unknown kind", Event{Kind: 99}, "unknown event kind"},
	}
	for _, tc := range cases {
		err := tc.ev.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want contains %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Kind: KindCreate, OID: 1, Class: objstore.ClassDocument, Size: 10, Slots: 0},
			"create oid:1 class=document size=10 slots=0"},
		{Event{Kind: KindAccess, OID: 2}, "access oid:2"},
		{Event{Kind: KindOverwrite, OID: 3, Slot: 1, Old: 4, New: 0, Init: true},
			"overwrite init oid:3[1] oid:4 -> nil dead=0(0B)"},
		{Event{Kind: KindPhase, Label: MakeLabel("Traverse")}, `phase "Traverse"`},
		{Event{Kind: KindRoot, OID: 5, Size: 1}, "root + oid:5"},
		{Event{Kind: KindRoot, OID: 5, Size: 0}, "root - oid:5"},
	}
	for _, tc := range cases {
		if got := tc.ev.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestEventLayout: Kind, Class, Init and the Label index share the event's
// first word, so an event carries no padding. A loaded trace is held for the whole run; a hole
// in Event costs every event a word.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 80 {
		t.Errorf("trace event is %d bytes, want 80: padding is paid by every held event, "+
			"and 16 B an event is 1.6 MiB of replay-oo7's live heap", n)
	}
	if n := unsafe.Sizeof(DeadObject{}); n != 16 {
		t.Errorf("dead-list entry is %d bytes, want 16", n)
	}
}

// TestLabelIntern: goroutines interning overlapping label sets at once get
// one Label per distinct text, and each Label's String is its text.
func TestLabelIntern(t *testing.T) {
	const workers, texts = 8, 64
	got := make([][]Label, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w interns texts w .. w+texts-1, so neighbours share all
			// but one, and each finds some already interned.
			for i := range texts {
				got[w] = append(got[w], MakeLabel(fmt.Sprintf("intern-%d", w+i)))
			}
		}()
	}
	wg.Wait()
	seen := map[Label]string{}
	for w, ls := range got {
		for i, l := range ls {
			text := fmt.Sprintf("intern-%d", w+i)
			if l == 0 || l.String() != text {
				t.Fatalf("worker %d: MakeLabel(%q) = %d, whose text is %q", w, text, l, l.String())
			}
			if prev, ok := seen[l]; ok && prev != text {
				t.Fatalf("label %d names both %q and %q", l, prev, text)
			}
			seen[l] = text
			if again := MakeLabel(text); again != l {
				t.Fatalf("%q interned as %d and %d", text, l, again)
			}
		}
	}
	if n := len(seen); n != workers+texts-1 {
		t.Errorf("%d labels for %d distinct texts", n, workers+texts-1)
	}
	if MakeLabel("") != 0 || Label(0).String() != "" {
		t.Error("the empty text is not the zero Label")
	}
}

// validChain builds a small valid trace: root a -> b, then cut b loose.
func validChain() *Trace {
	tr := &Trace{}
	tr.Append(Event{Kind: KindCreate, OID: 1, Class: objstore.ClassModule, Size: 10, Slots: 1})
	tr.Append(Event{Kind: KindRoot, OID: 1, Size: 1})
	tr.Append(Event{Kind: KindCreate, OID: 2, Class: objstore.ClassDocument, Size: 20})
	tr.Append(Event{Kind: KindOverwrite, OID: 1, Slot: 0, New: 2})
	tr.Append(Event{Kind: KindAccess, OID: 2})
	tr.Append(Event{Kind: KindOverwrite, OID: 1, Slot: 0, Old: 2, New: 0,
		Dead: []DeadObject{{OID: 2, Size: 20}}})
	return tr
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	if err := Validate(validChain()); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"wrong old value", func(tr *Trace) { tr.Events[5].Old = 9 }, "recorded old"},
		{"dead size mismatch", func(tr *Trace) { tr.Events[5].Dead[0].Size = 7 }, "size"},
		{"dead but reachable", func(tr *Trace) { tr.Events[5].New = 2 }, "mismatch"},
		{"missing dead annotation", func(tr *Trace) { tr.Events[5].Dead = nil }, "mismatch"},
		{"access absent", func(tr *Trace) { tr.Events[4].OID = 42 }, "absent"},
		{"duplicate create", func(tr *Trace) { tr.Events[2].OID = 1 }, "duplicate"},
		{"unroot absent", func(tr *Trace) { tr.Append(Event{Kind: KindRoot, OID: 42}) }, "absent"},
	}
	for _, m := range mutations {
		tr := validChain()
		m.mutate(tr)
		err := Validate(tr)
		if err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error = %v, want contains %q", m.name, err, m.want)
		}
	}
}

func TestValidateDoubleDead(t *testing.T) {
	tr := validChain()
	// Re-create and re-kill object 2's OID space with a second object that
	// reports an already-dead OID.
	tr.Append(Event{Kind: KindCreate, OID: 3, Class: objstore.ClassDocument, Size: 5})
	tr.Append(Event{Kind: KindOverwrite, OID: 1, Slot: 0, New: 3})
	tr.Append(Event{Kind: KindOverwrite, OID: 1, Slot: 0, Old: 3, New: 0,
		Dead: []DeadObject{{OID: 3, Size: 5}, {OID: 2, Size: 20}}})
	err := Validate(tr)
	if err == nil || !strings.Contains(err.Error(), "dead twice") {
		t.Errorf("double-dead error = %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	tr := validChain()
	tr.Append(Event{Kind: KindPhase, Label: MakeLabel("P1")})
	tr.Append(Event{Kind: KindOverwrite, OID: 1, Slot: 0, New: 0, Init: true})
	tr.Append(Event{Kind: KindUpdate, OID: 1})
	s := ComputeStats(tr)
	if s.Creates != 2 || s.Accesses != 1 || s.Updates != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Overwrites != 2 || s.InitStores != 1 {
		t.Errorf("overwrites = %d, init = %d; want 2, 1", s.Overwrites, s.InitStores)
	}
	if s.GarbageBytes != 20 || s.GarbageObjects != 1 {
		t.Errorf("garbage stats = %+v", s)
	}
	if s.BytesPerOverwrite != 10 {
		t.Errorf("BytesPerOverwrite = %v, want 10", s.BytesPerOverwrite)
	}
	if len(s.Phases) != 1 || s.Phases[0] != "P1" {
		t.Errorf("phases = %v", s.Phases)
	}
	if s.CreatedBytes != 30 {
		t.Errorf("CreatedBytes = %d, want 30", s.CreatedBytes)
	}
}

func TestDeadBytes(t *testing.T) {
	e := Event{Dead: []DeadObject{{OID: 1, Size: 3}, {OID: 2, Size: 4}}}
	if e.DeadBytes() != 7 {
		t.Errorf("DeadBytes = %d, want 7", e.DeadBytes())
	}
	var empty Event
	if empty.DeadBytes() != 0 {
		t.Error("empty DeadBytes not 0")
	}
}
