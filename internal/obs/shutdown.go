package obs

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Shutdown coordinates two-stage graceful shutdown for the CLIs that drain
// (odbgcd, odbgload, obsdump; gcsim and experiments cancel a plain context):
//
//	stage 1 (first SIGINT/SIGTERM, or first Interrupt call): the Draining
//	  channel closes. Nothing new is started; in-flight work finishes and
//	  is flushed.
//	stage 2 (second signal / Interrupt): the hard Context is cancelled and
//	  the process exits promptly.
//
// Interrupt is the signal-free entry point, so tests drive both stages
// without process signals.
type Shutdown struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	draining chan struct{}
	stage    int
}

// NewShutdown builds a Shutdown whose hard context descends from parent. No
// signals are wired until Notify is called.
func NewShutdown(parent context.Context) *Shutdown {
	ctx, cancel := context.WithCancel(parent)
	return &Shutdown{ctx: ctx, cancel: cancel, draining: make(chan struct{})}
}

// Context is the hard-cancel context: it ends at stage 2 (or when the
// parent ends).
func (s *Shutdown) Context() context.Context { return s.ctx }

// Draining is closed at stage 1. Select on it in loops that want to stop at
// a clean boundary.
func (s *Shutdown) Draining() <-chan struct{} { return s.draining }

// Interrupt advances one shutdown stage: the first call begins draining,
// the second (and any later) cancels the hard context. It reports the stage
// just entered (1 or 2) and is safe to call concurrently.
func (s *Shutdown) Interrupt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.stage {
	case 0:
		s.stage = 1
		close(s.draining)
	case 1:
		s.stage = 2
		s.cancel()
	}
	return s.stage
}

// Notify wires OS signals to Interrupt; with no arguments it watches SIGINT
// and SIGTERM. The returned stop function unregisters the handler and
// releases its goroutine; call it once shutdown handling is no longer
// wanted.
func (s *Shutdown) Notify(sigs ...os.Signal) (stop func()) {
	if len(sigs) == 0 {
		sigs = []os.Signal{os.Interrupt, syscall.SIGTERM}
	}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, sigs...)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			select {
			case <-ch:
				s.Interrupt()
			case <-done:
				return
			}
		}
	}()
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
		})
	}
}
