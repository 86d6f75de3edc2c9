// Package serve is the multi-tenant evaluation service (ISSUE 8): each
// session owns one isolated engine.Engine (kernel + compiler + tiering +
// registry namespace), while the process-wide sharded compile cache and
// the artifact store are shared across sessions, so tenant B's hot-query
// compile is warm because tenant A already paid for it — without either
// observing the other's definitions.
//
// The HTTP surface is deliberately small and JSON-only:
//
//	POST   /v1/sessions               -> {"id": "s-1"}
//	POST   /v1/sessions/{id}/eval     {"input": "...", "timeout_ms": 5000}
//	                                  -> {"value", "output", "timed_out", "duration_ms"}
//	DELETE /v1/sessions/{id}          -> 204
//	GET    /v1/sessions               -> {"sessions": [...], "count": n}
//	GET    /healthz                   -> ok
//	GET    /metrics                   -> obs text format (and /debug/*, obs.Mount)
//
// Request deadlines ride the kernel's abort machinery (engine.Eval arms a
// timer that fires Kernel.Abort); admission is bounded by a token channel
// sized MaxInflight — when every token is taken the handler answers 429
// immediately rather than queueing unboundedly on the engine mutex.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wolfc/internal/core"
	"wolfc/internal/engine"
	"wolfc/internal/expr"
	"wolfc/internal/obs"
)

var (
	ctrSessionsCreated   = obs.NewCounter("serve_sessions_created")
	ctrSessionsDestroyed = obs.NewCounter("serve_sessions_destroyed")
	ctrSessionsEvicted   = obs.NewCounter("serve_sessions_evicted")
	ctrEvals             = obs.NewCounter("serve_evals")
	ctrEvalErrors        = obs.NewCounter("serve_eval_errors")
	ctrTimeouts          = obs.NewCounter("serve_timeouts")
	ctrRejectedBusy      = obs.NewCounter("serve_rejected_busy")
	ctrRejectedSessions  = obs.NewCounter("serve_rejected_sessions")

	// Per-tenant eval latency, labelled by engine/session id and
	// cardinality-bounded with LRU fold-over into engine="_overflow" — the sum
	// stays exact past the cap instead of degrading to process-wide-only
	// aggregates at the old 128-engine cliff. Its _ns_count{engine} is the
	// session's request count.
	vecEvalLatency = obs.NewHistogramVec("serve_eval_latency", "engine", 0)

	// activeSessions backs the wolfc_serve_sessions_active gauge. It is
	// package-level (summed over every Server in the process) because gauge
	// providers cannot unregister: one permanent provider instead of a leak
	// per short-lived test Server.
	activeSessions atomic.Int64

	// sessionSeq numbers sessions across every Server in the process: a
	// session's id labels process-wide state (its serve_eval_latency series,
	// its engine's function blocks and gauges), so two servers must never
	// hand out the same one.
	sessionSeq atomic.Uint64
)

func init() {
	obs.RegisterGaugeProvider(func() []obs.Gauge {
		return []obs.Gauge{{Name: "serve_sessions_active", Value: float64(activeSessions.Load())}}
	})
}

// Options configures a Server.
type Options struct {
	// MaxSessions bounds live sessions (0 = default 64). Creation past the
	// bound answers 429.
	MaxSessions int
	// MaxInflight bounds concurrently admitted eval requests across all
	// sessions (0 = default 32). Admission past the bound answers 429.
	MaxInflight int
	// DefaultTimeout applies when a request omits timeout_ms (0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline (0 = 5m).
	MaxTimeout time.Duration
	// Tiering enables profile-guided auto-compilation inside each session's
	// engine.
	Tiering bool
	// Tier tunes the per-session tiering policy when Tiering is set.
	Tier core.TierPolicy
	// IdleTimeout evicts sessions that have neither evaluated nor been
	// created within the window (0 = never evict, the default). Sessions
	// with an eval in flight are never evicted regardless of age.
	IdleTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 32
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	return o
}

type session struct {
	eng     *engine.Engine
	created time.Time

	mu       sync.Mutex
	lastUsed time.Time
	evals    uint64
	busy     int // evals currently holding this session (janitor guard)
}

// Server owns the session table and the admission tokens.
type Server struct {
	opts     Options
	inflight chan struct{}

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	janitorStop chan struct{} // nil unless IdleTimeout > 0
	janitorDone chan struct{}
}

// NewServer builds a Server. The caller wires the process-shared pieces
// (artifact store via core.SetArtifactStore, metrics sink) before serving.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		inflight: make(chan struct{}, opts.MaxInflight),
		sessions: make(map[string]*session),
	}
	if opts.IdleTimeout > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s
}

// janitor periodically evicts sessions idle past IdleTimeout. The sweep
// interval tracks the timeout (a quarter of it, clamped to [50ms, 30s]) so
// short test timeouts evict promptly without waking a long-lived server up
// constantly.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	interval := s.opts.IdleTimeout / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.evictIdle(time.Now())
		}
	}
}

// evictIdle destroys every session whose last use is older than
// IdleTimeout and has no eval in flight. Exposed through the janitor only;
// the cutoff parameter keeps it testable.
func (s *Server) evictIdle(now time.Time) int {
	cutoff := now.Add(-s.opts.IdleTimeout)
	var doomed []*session
	s.mu.Lock()
	for id, ses := range s.sessions {
		if ses == nil {
			continue // reserved slot still being built
		}
		ses.mu.Lock()
		idle := ses.busy == 0 && ses.lastUsed.Before(cutoff)
		ses.mu.Unlock()
		if idle {
			delete(s.sessions, id)
			doomed = append(doomed, ses)
		}
	}
	s.mu.Unlock()
	for _, ses := range doomed {
		ses.eng.Close()
		activeSessions.Add(-1)
		ctrSessionsEvicted.Inc()
		ctrSessionsDestroyed.Inc()
	}
	return len(doomed)
}

// Handler returns the HTTP routing surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("POST /v1/sessions/{id}/eval", s.handleEval)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDestroy)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// /metrics, /debug/funcs, /debug/traces and /debug/pprof/* ride the same
	// mux.
	obs.Mount(mux)
	return mux
}

// Close destroys every session (engines release their registry entries and
// obs slots), stops the idle janitor, and refuses further creates.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	doomed := make([]*session, 0, len(s.sessions))
	for _, ses := range s.sessions {
		if ses != nil {
			doomed = append(doomed, ses)
		}
	}
	s.sessions = map[string]*session{}
	s.mu.Unlock()
	if s.janitorStop != nil {
		close(s.janitorStop)
		<-s.janitorDone
	}
	for _, ses := range doomed {
		ses.eng.Close()
		activeSessions.Add(-1)
		ctrSessionsDestroyed.Inc()
	}
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

type errorBody struct {
	Error string `json:"error"`
}

// jsonContentType is every JSON reply's Content-Type value, shared so that
// a reply does not allocate its header slice. Nothing appends to it.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

type createResponse struct {
	ID string `json:"id"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		ctrRejectedSessions.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "session limit reached (%d)", s.opts.MaxSessions)
		return
	}
	id := fmt.Sprintf("s-%d", sessionSeq.Add(1))
	// Reserve the slot before the (comparatively slow) engine build so a
	// create burst cannot overshoot MaxSessions.
	s.sessions[id] = nil
	s.mu.Unlock()

	eng := engine.New(engine.Options{ID: id, Tiering: s.opts.Tiering, Tier: s.opts.Tier})
	now := time.Now()
	ses := &session{eng: eng, created: now, lastUsed: now}

	s.mu.Lock()
	if s.closed {
		delete(s.sessions, id)
		s.mu.Unlock()
		eng.Close()
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	s.sessions[id] = ses
	s.mu.Unlock()
	ctrSessionsCreated.Inc()
	activeSessions.Add(1)
	writeJSON(w, http.StatusCreated, createResponse{ID: id})
}

func (s *Server) lookup(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ses, ok := s.sessions[id]
	if !ok || ses == nil { // nil = reserved slot still being built
		return nil, false
	}
	return ses, true
}

type sessionInfo struct {
	ID      string `json:"id"`
	Created string `json:"created"`
	Evals   uint64 `json:"evals"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]sessionInfo, 0, len(s.sessions))
	for id, ses := range s.sessions {
		if ses == nil {
			continue
		}
		ses.mu.Lock()
		infos = append(infos, sessionInfo{ID: id, Created: ses.created.UTC().Format(time.RFC3339), Evals: ses.evals})
		ses.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos, "count": len(infos)})
}

func (s *Server) handleDestroy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ses, ok := s.sessions[id]
	if ok && ses != nil {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok || ses == nil {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	// Abort any in-flight evaluation so Close's engine-mutex acquisition
	// doesn't wait out a long-running query.
	ses.eng.Abort()
	ses.eng.Close()
	activeSessions.Add(-1)
	ctrSessionsDestroyed.Inc()
	w.WriteHeader(http.StatusNoContent)
}

type evalRequest struct {
	Input     string `json:"input"`
	TimeoutMS int64  `json:"timeout_ms"`
}

type evalResponse struct {
	Value      string  `json:"value"`
	Output     string  `json:"output,omitempty"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	DurationMS float64 `json:"duration_ms"`
}

// maxEvalBody bounds an eval request body.
const maxEvalBody = 1 << 20

// maxPooledBody is the largest body buffer decodeEval returns to bodyPool:
// one rare large request must not pin a megabyte per P.
const maxPooledBody = 64 << 10

// bodyPool holds the buffers decodeEval reads request bodies into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeEval reads an eval request body: exactly one JSON object of at most
// maxEvalBody bytes with a nonblank input. The deadline is timeout_ms when
// positive, else opts.DefaultTimeout, and never more than opts.MaxTimeout.
func decodeEval(body io.Reader, opts Options) (input string, timeout time.Duration, err error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	// Read one byte past the limit to tell a body of exactly maxEvalBody
	// bytes from a longer one.
	if _, err := buf.ReadFrom(io.LimitReader(body, maxEvalBody+1)); err != nil {
		return "", 0, fmt.Errorf("bad request body: %v", err)
	}
	if buf.Len() > maxEvalBody {
		return "", 0, fmt.Errorf("bad request body: over %d bytes", maxEvalBody)
	}
	// Unmarshal copies every string out of buf, and refuses data after the
	// one JSON value.
	var req evalRequest
	if err := json.Unmarshal(buf.Bytes(), &req); err != nil {
		return "", 0, fmt.Errorf("bad request body: %v", err)
	}
	if strings.TrimSpace(req.Input) == "" {
		return "", 0, errors.New("empty input")
	}
	timeout = opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Cap in milliseconds before converting: a huge timeout_ms would wrap
		// the product negative, and EvalCtx reads that as no deadline.
		timeout = time.Duration(min(req.TimeoutMS, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
	}
	return req.Input, min(timeout, opts.MaxTimeout), nil
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ses, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	input, timeout, err := decodeEval(r.Body, s.opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Bounded admission: take a token or answer 429 now. Tokens bound the
	// number of requests simultaneously holding engine mutexes, so a slow
	// tenant cannot pile unbounded goroutines onto the process.
	select {
	case s.inflight <- struct{}{}:
		defer func() { <-s.inflight }()
	default:
		ctrRejectedBusy.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server at capacity (%d in-flight)", s.opts.MaxInflight)
		return
	}

	// Mark the session busy before evaluating so the idle janitor never
	// closes an engine out from under a running request.
	ses.mu.Lock()
	ses.busy++
	ses.mu.Unlock()

	// Root span for the request (ISSUE 9): minted here — or resumed from a
	// caller-supplied X-Trace-Id so cross-service callers can stitch — and
	// carried to the engine via context. Compile/invoke/fallback events
	// this eval produces, including background tier compiles it triggers,
	// become children of this span.
	ctx := r.Context()
	var sc obs.SpanContext
	if obs.TraceEnabled() {
		if tid, ok := obs.ParseID(r.Header.Get("X-Trace-Id")); ok {
			sc = obs.ResumeTrace(tid, id)
		} else {
			sc = obs.NewTrace(id)
		}
		ctx = obs.WithSpan(ctx, sc)
		w.Header().Set("X-Trace-Id", obs.IDString(sc.TraceID))
	}

	var tStart int64
	if sc.Valid() && !sc.Suppressed() {
		tStart = obs.TraceNow()
	}
	start := time.Now()
	res, err := ses.eng.EvalCtx(ctx, input, timeout)
	dur := time.Since(start)
	if sc.Valid() && !sc.Suppressed() {
		// The root event carries the root span id itself (no parent): every
		// child event Annotate()d from sc points its parent_id here.
		obs.Emit(obs.TraceEvent{Type: "serve", Name: id, TNs: tStart,
			DurNs: dur.Nanoseconds(), Engine: id,
			TraceID: obs.IDString(sc.TraceID), SpanID: obs.IDString(sc.SpanID)})
	}

	ses.mu.Lock()
	ses.lastUsed = time.Now()
	ses.evals++
	ses.busy--
	ses.mu.Unlock()
	ctrEvals.Inc()
	vecEvalLatency.Observe(id, dur)
	if res.TimedOut {
		ctrTimeouts.Inc()
	}
	if err != nil {
		ctrEvalErrors.Inc()
		if errors.Is(err, engine.ErrClosed) {
			writeError(w, http.StatusNotFound, "session %q closed", id)
			return
		}
		code := http.StatusUnprocessableEntity
		if strings.HasPrefix(err.Error(), "syntax:") {
			code = http.StatusBadRequest
		}
		writeError(w, code, "%v", err)
		return
	}
	value := ""
	if res.Value != nil {
		value = expr.InputForm(res.Value)
	}
	writeJSON(w, http.StatusOK, evalResponse{
		Value:      value,
		Output:     res.Output,
		TimedOut:   res.TimedOut,
		DurationMS: float64(dur.Microseconds()) / 1000,
	})
}
