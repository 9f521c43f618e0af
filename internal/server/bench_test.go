package server

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// benchEngine builds an engine the way cmd/odbgcd does by default — SAIO
// 10 %, UPDATEDPOINTER, the default geometry, metrics and the flight
// recorder on, no durable backend — and runs it until the test ends.
func benchEngine(tb testing.TB) (*Engine, *Metrics) {
	tb.Helper()
	mgr, err := storage.NewManager(storage.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.10})
	if err != nil {
		tb.Fatal(err)
	}
	m := NewMetrics(obs.NewLive().Registry())
	eng, err := NewEngine(gc.NewHeap(objstore.NewStore(), mgr), EngineConfig{
		Policy: pol, Selection: gc.UpdatedPointer{}, Metrics: m, Recorder: span.NewRecorder(span.Config{}),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return eng, m
}

// runEngine runs eng's loop on its own goroutine until the test ends.
func runEngine(tb testing.TB, eng *Engine) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		_ = eng.Run(ctx)
		close(done)
	}()
	tb.Cleanup(func() {
		cancel()
		<-done
	})
}

// mix drives the load generator's own op rotation — create, set a hub slot,
// unroot, access, update — through do, keeping the generator's bookkeeping,
// so every request is one a real odbgload session would send and succeeds.
type mix struct {
	tb testing.TB
	do func(Request) (Response, error)
	w  loadWorker
}

func newMix(tb testing.TB, do func(Request) (Response, error)) *mix {
	m := &mix{tb: tb, do: do}
	_, resp := m.send(Request{Op: OpCreate, Size: 256, Slots: hubSlots})
	m.w.hub = resp.OID
	return m
}

func (m *mix) step() (Request, Response) { return m.send(m.w.nextRequest()) }

func (m *mix) send(req Request) (Request, Response) {
	resp, err := m.do(req)
	if err != nil || resp.Status != StatusOK {
		m.tb.Fatalf("%+v answered %+v, %v", req, resp, err)
	}
	if req.Op == OpCreate {
		m.w.lastChild = resp.OID
	}
	return req, resp
}

// mixFrames returns the frames of 50 exchanges of the mix, requests and
// responses alternating, as the pointers the session and the client hand
// the codec.
func mixFrames(tb testing.TB) []any {
	eng, _ := benchEngine(tb)
	runEngine(tb, eng)
	var id uint64
	m := newMix(tb, func(req Request) (Response, error) {
		id++
		req.ID = id
		return eng.Submit(context.Background(), req, nil), nil
	})
	var frames []any
	for i := 0; i < 50; i++ {
		req, resp := m.step()
		req.ID = resp.ID
		frames = append(frames, &req, &resp)
	}
	return frames
}

// codecAllocs reports the allocations per frame of encoding frames into a
// reused buffer and of decoding them from one into reused targets.
func codecAllocs(tb testing.TB, frames []any) (enc, dec float64) {
	var wire []byte
	enc = testing.AllocsPerRun(20, func() {
		wire = wire[:0]
		for _, f := range frames {
			var err error
			if wire, err = appendFrame(wire, f); err != nil {
				tb.Fatal(err)
			}
		}
	})
	var (
		rd   bytes.Reader
		buf  = make([]byte, 0, frameBufBytes)
		req  Request
		resp Response
	)
	dec = testing.AllocsPerRun(20, func() {
		rd.Reset(wire)
		for _, f := range frames {
			var err error
			switch f.(type) {
			case *Request:
				req = Request{}
				_, _, err = readFrame(&rd, &buf, &req, nil)
			case *Response:
				resp = Response{}
				_, _, err = readFrame(&rd, &buf, &resp, nil)
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
	})
	return enc / float64(len(frames)), dec / float64(len(frames))
}

// BenchmarkFrameCodec times encoding and decoding one frame of the op mix,
// with no socket under the codec. Flat frames must not allocate.
func BenchmarkFrameCodec(b *testing.B) {
	frames := mixFrames(b)
	if enc, dec := codecAllocs(b, frames); enc != 0 || dec != 0 {
		b.Fatalf("allocations per frame: encode %v, decode %v; want 0 and 0", enc, dec)
	}
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendFrame(buf[:0], frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		wires := make([][]byte, len(frames))
		into := make([]any, len(frames))
		for i, f := range frames {
			var err error
			if wires[i], err = appendFrame(nil, f); err != nil {
				b.Fatal(err)
			}
			into[i] = new(Response)
			if _, ok := f.(*Request); ok {
				into[i] = new(Request)
			}
		}
		var rd bytes.Reader
		buf := make([]byte, 0, frameBufBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(frames)
			rd.Reset(wires[k])
			if _, _, err := readFrame(&rd, &buf, into[k], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineSubmit times the op mix through admission, the engine and
// the online collector in process, with no socket and no codec: through
// Submit, as an embedding caller would, and through a session's waiter.
func BenchmarkEngineSubmit(b *testing.B) {
	ctx := context.Background()
	for _, via := range []string{"Submit", "session"} {
		b.Run(via, func(b *testing.B) {
			eng, _ := benchEngine(b)
			runEngine(b, eng)
			submit := func(req Request) (Response, error) { return eng.Submit(ctx, req, nil), nil }
			if via == "session" {
				w := waiter{e: eng, timeout: 5 * time.Second}
				submit = func(req Request) (Response, error) { return w.submit(ctx, req, nil), nil }
			}
			m := newMix(b, submit)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.step()
			}
		})
	}
}

// BenchmarkSessionRoundTrip times one closed-loop Client driving the op mix
// over loopback TCP: the whole request path — codec, socket, session,
// admission, engine, collector — with the span flight recorder on, as odbgcd
// runs, and off. The difference is what a request span and a collection span
// cost a round trip; no other benchmark in the module has both sides.
func BenchmarkSessionRoundTrip(b *testing.B) {
	for _, recorder := range []string{"on", "off"} {
		b.Run("recorder="+recorder, func(b *testing.B) {
			eng, metrics := benchEngine(b)
			if recorder == "off" {
				eng.cfg.Recorder = nil // read at each request and collection, none has run yet
			}
			srv, err := New(Config{Addr: "127.0.0.1:0"}, eng, metrics)
			if err != nil {
				b.Fatal(err)
			}
			addr, err := srv.Listen()
			if err != nil {
				b.Fatal(err)
			}
			drain, finished := make(chan struct{}), make(chan error, 1)
			go func() { finished <- srv.Serve(context.Background(), drain) }()
			cli, err := Dial(addr, 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			m := newMix(b, func(req Request) (Response, error) { return cli.Do(ctx, req) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.step()
			}
			b.StopTimer()
			_ = cli.Close()
			close(drain)
			if err := <-finished; err != nil {
				b.Fatalf("drain: %v", err)
			}
		})
	}
}

// BenchmarkRebuildHeap times the second half of a restart: populating an empty
// heap from a store disk.Open has just recovered. The database has the
// restart workload's shape (rooted 8-slot hubs, 8 slotless leaves each) and
// is checkpointed once; its files live in the benchmark's temporary
// directory. Each iteration reopens them outside the timer, because a
// rebuilt heap adopts the recovered store and a second heap may not load it.
func BenchmarkRebuildHeap(b *testing.B) {
	for _, n := range []int{10_000, 200_000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			fs := disk.OSFS{Dir: b.TempDir()}
			st, _, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			must := func(err error) {
				if err != nil {
					b.Helper()
					b.Fatal(err)
				}
			}
			for hub := objstore.OID(1); int(hub)-1+9 <= n; hub += 9 {
				must(st.LogAlloc(hub, objstore.ClassUnknown, 200, 8))
				must(st.LogRoot(hub, true))
				for k := 0; k < 8; k++ {
					must(st.LogAlloc(hub+1+objstore.OID(k), objstore.ClassUnknown, 100, 0))
					must(st.LogSet(hub, k, hub+1+objstore.OID(k)))
				}
				must(st.Commit())
			}
			must(st.Checkpoint())
			objects := st.NumObjects()
			must(st.Close())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, _, err = disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncNever})
				must(err)
				mgr, err := storage.NewManager(storage.DefaultConfig())
				must(err)
				heap := gc.NewHeap(objstore.NewStore(), mgr)
				b.StartTimer()
				must(RebuildHeap(heap, st))
				b.StopTimer()
				if heap.Store().Len() != objects {
					b.Fatalf("rebuilt %d of %d objects", heap.Store().Len(), objects)
				}
				must(st.Close())
				b.StartTimer()
			}
			b.ReportMetric(float64(objects)*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
		})
	}
}
