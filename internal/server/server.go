package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"odbgc/internal/obs"
	"odbgc/internal/simerr"
)

// Config parameterizes the network front end.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// MaxSessions bounds concurrent client sessions; connections past the
	// bound receive a shed frame and are closed. Defaults to 64.
	MaxSessions int
	// IdleTimeout reaps sessions that send nothing for this long.
	// Defaults to 30s.
	IdleTimeout time.Duration
	// RequestTimeout bounds each request from admission to response.
	// Defaults to 5s.
	RequestTimeout time.Duration
	// DrainGrace bounds how long draining sessions may take to finish
	// their in-flight request once stage-1 shutdown begins. Defaults to 2s.
	DrainGrace time.Duration
}

func (c *Config) applyDefaults() {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 2 * time.Second
	}
}

// Server accepts client sessions and routes their requests through the
// engine's admission control. Its lifetime is one Serve call.
type Server struct {
	cfg    Config
	engine *Engine
	m      *Metrics

	ln       net.Listener
	draining atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	sessions atomic.Int64 // active session count, for admission at accept
	sessSeq  uint64       // accepted-session counter (accept goroutine only); seeds span IDs
}

// New builds a server over an engine. A nil m shares the engine's metrics,
// which are on a private registry when the engine was given none.
func New(cfg Config, engine *Engine, m *Metrics) (*Server, error) {
	if engine == nil {
		return nil, fmt.Errorf("server: nil engine")
	}
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("server: MaxSessions %d must be positive", cfg.MaxSessions)
	}
	cfg.applyDefaults()
	if m == nil {
		m = engine.cfg.Metrics
	}
	return &Server{cfg: cfg, engine: engine, m: m, conns: make(map[net.Conn]struct{})}, nil
}

// Listen binds the configured address. It is separate from Serve so
// callers can learn the bound address (ephemeral ports in tests) before
// traffic starts.
func (s *Server) Listen() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve runs the accept loop until drain closes or ctx is cancelled,
// then shuts down in two stages:
//
//	stage 1 (drain closes): the listener closes, sessions are nudged via
//	  a read deadline of now+DrainGrace, in-flight requests finish, the
//	  engine drains its queue, and Serve returns nil — a clean drain.
//	stage 2 (ctx cancelled): every connection is closed immediately and
//	  Serve returns the classified context error.
//
// Listen must have been called first.
func (s *Server) Serve(ctx context.Context, drain <-chan struct{}) error {
	if s.ln == nil {
		return fmt.Errorf("server: Serve before Listen")
	}

	engineDone := make(chan error, 1)
	go func() { engineDone <- s.engine.Run(ctx) }()

	// The watcher turns shutdown signals into listener/connection closes,
	// because Accept and Read have no context of their own. Two straight
	// selects, no loop: stage 1 then stage 2.
	acceptDone := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-drain:
			s.beginDrain()
		case <-ctx.Done():
			s.beginDrain()
		case <-acceptDone:
			return
		}
		select {
		case <-ctx.Done():
			s.closeAll()
		case <-acceptDone:
		}
	}()

	var wg sync.WaitGroup
	for ctx.Err() == nil {
		conn, err := s.ln.Accept()
		if err != nil {
			// The only way Accept fails here is the listener closing —
			// shutdown — or a fatal socket error; either way the loop ends.
			break
		}
		if s.draining.Load() {
			_ = WriteFrame(conn, Response{Status: StatusClosed,
				Error: simerr.SessionClosedf("server draining").Error()})
			_ = conn.Close()
			continue
		}
		if s.sessions.Load() >= int64(s.cfg.MaxSessions) {
			// Session-level load shedding: tell the client to back off and
			// free the socket; never queue unbounded connections.
			s.m.shed.Add(1)
			_ = WriteFrame(conn, Response{Status: StatusShed,
				Error:        simerr.Overloadedf("session limit %d reached", s.cfg.MaxSessions).Error(),
				RetryAfterMs: s.engine.retryAfterMs()})
			_ = conn.Close()
			continue
		}
		s.track(conn)
		s.sessions.Add(1)
		s.sessSeq++
		sess := s.sessSeq
		s.m.sessionsTotal.Add(1)
		s.m.sessionsActive.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.m.sessionsActive.Add(-1)
			defer s.sessions.Add(-1)
			defer s.untrack(conn)
			defer func() { _ = conn.Close() }()
			s.session(ctx, conn, sess)
		}()
	}
	close(acceptDone)
	_ = s.ln.Close()

	// Drain: wait for every session to finish, then let the engine empty
	// its queue. Sessions are bounded by DrainGrace (their read deadlines
	// were nudged) or by ctx (stage 2 closes their conns), so this wait
	// terminates.
	wg.Wait()
	s.engine.CloseQueue()
	err := <-engineDone
	<-watcherDone
	if err != nil && ctx.Err() != nil {
		return err
	}
	return nil
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[conn] = struct{}{}
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// beginDrain enters stage 1: no new sessions or requests, and every open
// connection's read deadline is pulled in so blocked sessions wake within
// the grace period. The flag is set strictly before the deadline nudge so
// a session that overwrites the nudged deadline with its idle deadline is
// guaranteed to observe draining on its next check and re-arm the short
// deadline itself.
func (s *Server) beginDrain() {
	s.draining.Store(true)
	s.engine.BeginDrain()
	_ = s.ln.Close()
	dl := time.Now().Add(s.cfg.DrainGrace)
	for _, conn := range s.snapshotConns() {
		_ = conn.SetReadDeadline(dl)
	}
}

// closeAll is stage 2: hard-close every connection.
func (s *Server) closeAll() {
	for _, conn := range s.snapshotConns() {
		_ = conn.Close()
	}
}

// snapshotConns copies the live connection set under s.mu so drain and
// close touch the sockets with the lock released: net.Conn calls can block
// on a wedged peer, and a stalled socket must not stall track/untrack.
func (s *Server) snapshotConns() []net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		//lint:allow maporder shutdown touches every connection; order is irrelevant
		conns = append(conns, conn)
	}
	return conns
}

// session serves one connection: read a frame, submit it, write the
// response, repeat until the client goes away, the idle deadline fires,
// the drain begins, or ctx ends. sess is the accept-order session number;
// with tracing on, request seq of this session gets the deterministic span
// ID RequestID(sess, seq) and per-stage timings on the engine tick clock.
func (s *Server) session(ctx context.Context, conn net.Conn, sess uint64) {
	rec := s.engine.cfg.Recorder
	acceptTick := s.engine.Now()
	fr := newFramer(conn)
	wait := waiter{e: s.engine, timeout: s.cfg.RequestTimeout}
	// Declared out here because a frame the typed codec declines goes to
	// encoding/json by reference: inside the loop each would be a heap
	// allocation per request.
	var (
		req  Request
		resp Response
		seq  uint64
	)
	for ctx.Err() == nil {
		if s.draining.Load() {
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.DrainGrace))
			_ = WriteFrame(conn, Response{Status: StatusClosed,
				Error: simerr.SessionClosedf("server draining").Error()})
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if s.draining.Load() {
			// The idle deadline just overwrote the drain nudge; re-arm the
			// short one and take the draining path on the next read error
			// or loop turn.
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.DrainGrace))
		}
		req = Request{}
		arrival, decoded, err := fr.read(&req, s.engine.Now)
		if err != nil {
			switch {
			case IsMalformed(err):
				// Hostile or corrupt bytes: the frame boundary is gone, so
				// the connection cannot be saved. Best-effort error frame,
				// then close. No span: the request never decoded.
				s.m.malformed.Add(1)
				_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
				_ = WriteFrame(conn, Response{Status: StatusError, Error: err.Error()})
			case isTimeout(err) && !s.draining.Load():
				s.m.idleReaped.Add(1)
			case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
				// Client went away between frames (or mid-frame); normal.
			}
			return
		}
		seq++
		sp := rec.Start(obs.KindRequest, req.Op, obs.RequestID(sess, seq), 0, arrival)
		if sp != nil {
			sp.Session, sp.Seq = sess, seq
		}
		if seq == 1 {
			// Accept-to-first-frame is charged once per session; it precedes
			// the span's own window, so it lives outside the stage-sum check.
			sp.SetStage(obs.StageAccept, arrival-acceptTick)
			s.m.stageAccept.ObserveExemplar(float64(arrival-acceptTick)/1e6, sp.SpanID())
		}
		sp.SetStage(obs.StageDecode, decoded-arrival)
		s.m.stageDecode.ObserveExemplar(float64(decoded-arrival)/1e6, sp.SpanID())
		resp = wait.submit(ctx, req, sp)
		// Queue and service stages come back as response metadata: the
		// engine never touches the session's span, only its ID, so there is
		// no write to race with an abandoned waiter's Finish.
		sp.SetStage(obs.StageQueue, resp.QueueUs*1000)
		sp.SetStage(obs.StageService, resp.ServiceUs*1000)
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout))
		wStart := s.engine.Now()
		werr := fr.write(&resp)
		wEnd := s.engine.Now()
		sp.SetStage(obs.StageWrite, wEnd-wStart)
		s.m.stageWrite.ObserveExemplar(float64(wEnd-wStart)/1e6, sp.SpanID())
		rec.Finish(sp, wEnd, outcomeOf(resp))
		if werr != nil {
			return
		}
	}
}

// outcomeOf maps a response to its span outcome tag.
func outcomeOf(resp Response) string {
	switch {
	case resp.Expired:
		return obs.OutcomeExpired
	case resp.Status == StatusOK:
		return obs.OutcomeOK
	case resp.Status == StatusShed:
		return obs.OutcomeShed
	case resp.Status == StatusClosed:
		return obs.OutcomeClosed
	default:
		return obs.OutcomeError
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
