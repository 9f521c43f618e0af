package trace

import (
	"bytes"
	"reflect"
	"testing"

	"odbgc/internal/objstore"
)

// TestBuilderMatchesAppend: at every length around the chunk boundaries the
// builder yields the events bare Trace.Append would, in an exactly sized
// slice, and a snapshot is not disturbed by what is appended after it.
func TestBuilderMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, builderChunk - 1, builderChunk, builderChunk + 1, 3*builderChunk + 5} {
		var b Builder
		want := &Trace{}
		for i := 0; i < n; i++ {
			e := Event{Kind: KindAccess, OID: objstore.OID(i + 1)}
			b.Append(e)
			want.Append(e)
		}
		if b.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, b.Len())
		}
		got := b.Trace()
		if len(got.Events) != n || cap(got.Events) != n {
			t.Fatalf("n=%d: len %d cap %d, want both %d", n, len(got.Events), cap(got.Events), n)
		}
		if n > 0 && !reflect.DeepEqual(got.Events, want.Events) {
			t.Fatalf("n=%d: events differ from Trace.Append's", n)
		}
		b.Append(Event{Kind: KindUpdate, OID: 1})
		if len(got.Events) != n || b.Trace().Len() != n+1 {
			t.Fatalf("n=%d: snapshot moved with the builder", n)
		}
	}
}

// TestBuilderDeadListsDoNotOverlap: lists carved from one arena chunk are
// adjacent in memory, so each must be capped at its own length — an append
// by a careless consumer copies the list out instead of overwriting the next
// event's oracle annotation.
func TestBuilderDeadListsDoNotOverlap(t *testing.T) {
	var b Builder
	first, second := b.Dead(2), b.Dead(3)
	if len(first) != 2 || cap(first) != 2 || len(second) != 3 || cap(second) != 3 {
		t.Fatalf("lists are %d/%d and %d/%d, want 2/2 and 3/3", len(first), cap(first), len(second), cap(second))
	}
	second[0] = DeadObject{OID: 9, Size: 9}
	_ = append(first, DeadObject{OID: 1, Size: 1})
	if second[0] != (DeadObject{OID: 9, Size: 9}) {
		t.Fatal("appending to one dead list overwrote its neighbour")
	}
	if big := b.Dead(deadArenaChunk + 1); len(big) != deadArenaChunk+1 {
		t.Fatalf("a list longer than a chunk came back %d long", len(big))
	}
}

// TestDecodedTracesAreExactlySized: every decoder hands back cap == len, so
// a loaded trace carries no growth slack into the replay that holds it.
func TestDecodedTracesAreExactlySized(t *testing.T) {
	chain := validChain()
	for chain.Len() < 2*builderChunk+7 {
		chain.Append(Event{Kind: KindAccess, OID: 1})
	}
	var bin bytes.Buffer
	if err := WriteAll(&bin, chain); err != nil {
		t.Fatal(err)
	}
	strict, err := ReadAll(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lenient, _, _, err := ReadAllLenient(bytes.NewReader(bin.Bytes()[:bin.Len()-1]))
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Trace{"ReadAll": strict, "ReadAllLenient": lenient} {
		if tr.Len() != chain.Len() || cap(tr.Events) != len(tr.Events) {
			t.Errorf("%s: len %d cap %d, want both %d", name, len(tr.Events), cap(tr.Events), chain.Len())
		}
		if !reflect.DeepEqual(tr.Events, chain.Events) {
			t.Errorf("%s: decoded events differ", name)
		}
	}
}
