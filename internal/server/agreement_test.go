package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/sim"
	"odbgc/internal/storage"
	"odbgc/internal/trace"
)

// agreeOps is the length of each seeded op stream: long enough for 60 to 180
// collections under each policy.
const agreeOps = 20000

// agreeStorage is the geometry both drivers run on: small partitions, so the
// stream's few megabytes make many of them.
var agreeStorage = storage.Config{PageSize: 4096, PagesPerPartition: 4, BufferPages: 8}

// opStream is a seeded client workload and the replay trace that says the
// same thing: each request and the events a replay of it holds.
type opStream struct {
	reqs   []Request
	events []trace.Event
}

// genOps builds n requests that all succeed against a fresh database. The
// stream only touches objects it holds rooted, so none of them can be
// collected under it: it creates (and roots) objects, stores pointers into
// their slots — initializing stores included — reads and updates them, roots
// an object it reaches through a slot and unroots objects, which is how the
// garbage arises.
func genOps(seed int64, n int) opStream {
	rng := rand.New(rand.NewSource(seed))
	var s opStream
	next := objstore.OID(1)
	slots := map[objstore.OID][]objstore.OID{}
	var held []objstore.OID
	isHeld := map[objstore.OID]bool{}
	pick := func() (int, objstore.OID) { i := rng.Intn(len(held)); return i, held[i] }
	hold := func(oid objstore.OID) { held = append(held, oid); isHeld[oid] = true }
	add := func(r Request, evs ...trace.Event) {
		s.reqs = append(s.reqs, r)
		s.events = append(s.events, evs...)
	}
	for len(s.reqs) < n {
		switch op := rng.Intn(100); {
		case op < 20 || len(held) < 64:
			oid, size, nslots := next, 40+rng.Intn(400), rng.Intn(5)
			next++
			slots[oid] = make([]objstore.OID, nslots)
			hold(oid)
			add(Request{Op: OpCreate, Size: size, Slots: nslots},
				trace.Event{Kind: trace.KindCreate, OID: oid, Size: size, Slots: nslots},
				trace.Event{Kind: trace.KindRoot, OID: oid, Size: 1})
		case op < 48:
			_, src := pick()
			if len(slots[src]) == 0 {
				continue
			}
			slot, dst := rng.Intn(len(slots[src])), objstore.NilOID
			if rng.Intn(10) < 7 {
				_, dst = pick()
			}
			old := slots[src][slot]
			slots[src][slot] = dst
			add(Request{Op: OpSet, OID: uint64(src), Slot: slot, Dst: uint64(dst)},
				trace.Event{Kind: trace.KindOverwrite, OID: src, Slot: slot, Old: old, New: dst, Init: old.IsNil()})
		case op < 62:
			_, oid := pick()
			add(Request{Op: OpAccess, OID: uint64(oid)}, trace.Event{Kind: trace.KindAccess, OID: oid})
		case op < 70:
			_, oid := pick()
			add(Request{Op: OpUpdate, OID: uint64(oid)}, trace.Event{Kind: trace.KindUpdate, OID: oid})
		case op < 78:
			_, src := pick()
			if len(slots[src]) == 0 {
				continue
			}
			oid := slots[src][rng.Intn(len(slots[src]))]
			if oid.IsNil() || isHeld[oid] {
				continue
			}
			hold(oid)
			add(Request{Op: OpRoot, OID: uint64(oid)}, trace.Event{Kind: trace.KindRoot, OID: oid, Size: 1})
		default:
			if len(held) < 512 {
				continue
			}
			i, oid := pick()
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			delete(isHeld, oid)
			add(Request{Op: OpUnroot, OID: uint64(oid)}, trace.Event{Kind: trace.KindRoot, OID: oid})
		}
	}
	return s
}

// askLog is a rate policy that notes the clock of every ask it answers yes —
// the clock each turn of the loop starts at — and passes its policy's
// diagnostics through.
type askLog struct {
	core.RatePolicy
	due []core.Clock
}

func (p *askLog) ShouldCollect(now core.Clock) bool {
	yes := p.RatePolicy.ShouldCollect(now)
	if yes {
		p.due = append(p.due, now)
	}
	return yes
}

func (p *askLog) diag() core.Diagnostics {
	d, _ := p.RatePolicy.(core.Diagnostics)
	return d
}

func (p *askLog) LastEstimate() float64 {
	if d := p.diag(); d != nil {
		return d.LastEstimate()
	}
	return 0
}

func (p *askLog) LastTarget() float64 {
	if d := p.diag(); d != nil {
		return d.LastTarget()
	}
	return 0
}

func (p *askLog) LastInterval() uint64 {
	if d := p.diag(); d != nil {
		return d.LastInterval()
	}
	return 0
}

// turnLog keeps a driver's decision and collection events with the driver's
// own position (step, phase) blanked, which is all that may differ.
type turnLog struct {
	decisions   []obs.Decision
	collections []obs.Collection
}

func (l *turnLog) Observe(e obs.Envelope) {
	switch {
	case e.Decision != nil:
		d := *e.Decision
		d.Step = 0
		l.decisions = append(l.decisions, d)
	case e.Collection != nil:
		c := *e.Collection
		c.Step, c.Phase = 0, ""
		l.collections = append(l.collections, c)
	}
}

// driverRun is what one driver made of a stream.
type driverRun struct {
	due   []core.Clock
	turns *turnLog
	heap  *gc.Heap
}

// objects lists the heap's object headers, pointer slots and placement
// included, in OID order.
func (r driverRun) objects() []objstore.Object {
	var out []objstore.Object
	r.heap.Store().ForEach(func(o *objstore.Object) {
		c := *o
		c.Slots = append([]objstore.OID(nil), o.Slots...)
		out = append(out, c)
	})
	return out
}

func replayStream(t *testing.T, s opStream, pol core.RatePolicy) driverRun {
	t.Helper()
	ask, turns := &askLog{RatePolicy: pol}, &turnLog{}
	sm, err := sim.New(sim.Config{Storage: agreeStorage, Policy: ask, Selection: gc.UpdatedPointer{}, Observer: turns})
	if err != nil {
		t.Fatal(err)
	}
	sm.Heap().SetOracleless(true)
	// The engine asks once more after its last request; a trailing event
	// that changes nothing gives the simulator the same ask before it.
	events := append(append([]trace.Event(nil), s.events...), trace.Event{Kind: trace.KindIdle})
	for i := range events {
		if err := sm.Step(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sm.Finish(); err != nil {
		t.Fatal(err)
	}
	return driverRun{due: ask.due, turns: turns, heap: sm.Heap()}
}

func serveStream(t *testing.T, s opStream, pol core.RatePolicy) driverRun {
	t.Helper()
	mgr, err := storage.NewManager(agreeStorage)
	if err != nil {
		t.Fatal(err)
	}
	ask, turns := &askLog{RatePolicy: pol}, &turnLog{}
	heap := gc.NewHeap(objstore.NewStore(), mgr)
	eng, err := NewEngine(heap, EngineConfig{Policy: ask, Selection: gc.UpdatedPointer{}, Observer: turns})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()
	for i, req := range s.reqs {
		req.ID = uint64(i + 1)
		if resp := eng.Submit(ctx, req, nil); resp.Status != StatusOK {
			t.Fatalf("request %d (%s): %+v", i, req.Op, resp)
		}
	}
	eng.CloseQueue()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := heap.Check(); err != nil {
		t.Fatal(err)
	}
	return driverRun{due: ask.due, turns: turns, heap: heap}
}

// firstDiff names the first index at which two equal-typed slices differ.
func firstDiff[T any](a, b []T) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("first difference at %d:\n sim    %+v\n engine %+v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d (sim) and %d (engine)", len(a), len(b))
}

// TestDriversAgree runs one seeded op stream through the simulator and
// through the server engine in process, with no backend and the oracle off,
// and requires the same control loop of both: every turn starting at the same
// clock, the same decisions, the same collections (index, partition,
// interval, reclaimed bytes and objects, clock, I/O, cumulative I/O, database
// bytes), and the same object store at the end.
func TestDriversAgree(t *testing.T) {
	policies := []struct {
		name string
		make func() (core.RatePolicy, error)
	}{
		{"fixed", func() (core.RatePolicy, error) { return core.NewFixedRate(20) }},
		{"saio", func() (core.RatePolicy, error) { return core.NewSAIO(core.SAIOConfig{Frac: 0.10}) }},
		{"saga-fgshb", func() (core.RatePolicy, error) {
			est, err := core.NewFGSHB(0.8)
			if err != nil {
				return nil, err
			}
			// The clamp's default ceiling, 1 000 overwrites, would allow
			// only a few collections in a stream this short.
			return core.NewSAGA(core.SAGAConfig{Frac: 0.10, DtMax: 50}, est)
		}},
	}
	for _, seed := range []int64{1, 2, 3} {
		s := genOps(seed, agreeOps)
		for _, p := range policies {
			t.Run(fmt.Sprintf("%s/seed=%d", p.name, seed), func(t *testing.T) {
				simPol, err := p.make()
				if err != nil {
					t.Fatal(err)
				}
				engPol, err := p.make()
				if err != nil {
					t.Fatal(err)
				}
				a, b := replayStream(t, s, simPol), serveStream(t, s, engPol)
				if len(a.turns.collections) < 20 {
					t.Fatalf("only %d collections: the stream is too short to compare drivers", len(a.turns.collections))
				}
				if !reflect.DeepEqual(a.due, b.due) {
					t.Errorf("turn start clocks differ: %s", firstDiff(a.due, b.due))
				}
				if !reflect.DeepEqual(a.turns.decisions, b.turns.decisions) {
					t.Errorf("decisions differ: %s", firstDiff(a.turns.decisions, b.turns.decisions))
				}
				if !reflect.DeepEqual(a.turns.collections, b.turns.collections) {
					t.Errorf("collections differ: %s", firstDiff(a.turns.collections, b.turns.collections))
				}
				if ao, bo := a.objects(), b.objects(); !reflect.DeepEqual(ao, bo) {
					t.Errorf("final stores differ: %s", firstDiff(ao, bo))
				}
				if as, bs := a.heap.Disk().Stats(), b.heap.Disk().Stats(); as != bs {
					t.Errorf("final I/O differs: sim %+v, engine %+v", as, bs)
				}
			})
		}
	}
}
