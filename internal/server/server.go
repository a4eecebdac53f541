// Package server exposes fitted Ranking Principal Curves over an HTTP/JSON
// API backed by a registry.Registry. The endpoints mirror the lifecycle of
// a ranking rule in the paper: fit (or install) a rule, inspect its
// diagnostics, then reuse it to score and rank fresh observations. Batch
// scoring shards across a worker pool so throughput scales with cores.
//
// Routes:
//
//	POST   /v1/models             fit from rows, or install a saved rule
//	GET    /v1/models             list stored rules (metadata only)
//	GET    /v1/models/{id}        one rule's metadata
//	GET    /v1/models/{id}/rule   the saved-rule document (Model.Save output)
//	DELETE /v1/models/{id}        remove a rule
//	POST   /v1/models/{id}/score  score rows with a stored rule
//	POST   /v1/models/{id}/rank   score rows and return 1-based positions
//	GET    /healthz               liveness + model count (503 while draining)
//	GET    /metrics               Prometheus-style counters and latencies
//	GET    /statusz               live status snapshot (JSON or HTML)
//	GET    /controlz              drain state + in-flight count
//	POST   /controlz/drain        stop admitting work (?wait_ms= blocks until idle)
//	POST   /controlz/resume       resume admitting work
//
// Every request is traced (see internal/obs): responses carry an
// X-Request-Id header, error bodies echo the ID, stage timings are
// recorded per request, and requests slower than Options.SlowThreshold
// are logged structurally and retained for /statusz.
//
// Scoring requests pass admission control before touching the pool:
// server-wide in-flight byte and row budgets, per-model concurrency with
// a bounded wait queue, and a feasibility check of the client's deadline
// (X-Deadline-Ms header or ?deadline_ms=, capped by Options.MaxDeadline)
// against the model's observed median score time. Shed work answers 429
// or 503 immediately with Retry-After; admitted work is cancelled
// cooperatively at row-block boundaries once its deadline expires. See
// admission.go, controlz.go, and internal/faultinject for the failure
// harness the chaos suite drives through these paths.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/core"
	"rpcrank/internal/faultinject"
	"rpcrank/internal/frame"
	"rpcrank/internal/obs"
	"rpcrank/internal/order"
	"rpcrank/internal/registry"
)

// Options configures New.
type Options struct {
	// Workers sizes the batch-scoring pool (≤ 0 selects GOMAXPROCS).
	Workers int
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxBatchRows bounds the row count of one score/rank/fit request
	// (default 1,000,000).
	MaxBatchRows int
	// SlowThreshold is the latency at or above which a request's stage
	// trace is logged (Warn) and retained for /statusz. Zero selects the
	// 500ms default; negative disables slow tracing.
	SlowThreshold time.Duration
	// TraceSample, when positive, logs roughly one in TraceSample
	// requests as a structured access line (Info) with stage timings.
	TraceSample int
	// Logger receives slow-request and sampled access logs (nil selects
	// slog.Default()).
	Logger *slog.Logger

	// MaxDeadline caps the client-supplied deadline (X-Deadline-Ms header
	// or ?deadline_ms=); longer requests are silently clamped. Zero
	// selects the 60s default.
	MaxDeadline time.Duration
	// MaxInFlightBytes is the server-wide admission budget on in-flight
	// request body bytes (charged from Content-Length); requests beyond
	// it are shed with 429. Zero selects 4×MaxBodyBytes; negative
	// disables the budget.
	MaxInFlightBytes int64
	// MaxInFlightRows is the server-wide budget on rows concurrently
	// being scored; batches beyond it are shed with 429. Zero selects
	// 4×MaxBatchRows; negative disables the budget.
	MaxInFlightRows int64
	// ModelConcurrency bounds concurrent score/rank requests per model
	// (≤ 0 selects 2×Workers). Requests beyond it queue.
	ModelConcurrency int
	// ModelQueue bounds how many requests may wait per model for a
	// concurrency slot; one more is shed with 429 + Retry-After. Zero
	// selects 4×ModelConcurrency; negative selects no queue (shed the
	// moment the concurrency limit is hit).
	ModelQueue int
	// Faults, when non-nil, arms the fault-injection schedule (see
	// internal/faultinject). Production servers leave it nil — every
	// injection point then compiles to a nil check.
	Faults *faultinject.Faults

	// Cluster, when non-nil, makes this node a member of a fault-tolerant
	// serving group (see internal/cluster): score/rank traffic is sharded
	// by rendezvous hashing across the live members and forwarded with
	// retries, installs are broadcast to peers, and the /clusterz
	// replication endpoints answer them. Nil is a single node; the scoring
	// fast path then pays only a nil check.
	Cluster *cluster.Cluster
}

const (
	defaultMaxBodyBytes  = 32 << 20
	defaultMaxBatchRows  = 1_000_000
	defaultRuleName      = "model"
	defaultSlowThreshold = 500 * time.Millisecond
	defaultMaxDeadline   = time.Minute
	// slowRingSize bounds the /statusz slow-request history.
	slowRingSize = 64
	// retryAfterSeconds is the Retry-After hint stamped on every 429/503:
	// shed load is bursty, so "come back in a second" is the right order
	// of magnitude, and a fixed value keeps the error path allocation-free.
	retryAfterSeconds = "1"
)

// Server routes the API. Create with New; it implements http.Handler.
type Server struct {
	reg      *registry.Registry
	pool     *Pool
	metrics  *Metrics
	adm      *admission
	mux      *http.ServeMux
	opts     Options
	logger   *slog.Logger
	slowRing *obs.Ring
	start    time.Time
	cluster  *cluster.Cluster // nil on a single node

	// draining, when set, sheds new API work with 503 + Connection: close
	// while in-flight requests run to completion (see Drain/Resume and
	// the /controlz endpoints). Observability and control routes stay up.
	draining atomic.Bool
}

// New builds a Server around an open registry.
func New(reg *registry.Registry, opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	if opts.MaxBatchRows <= 0 {
		opts.MaxBatchRows = defaultMaxBatchRows
	}
	if opts.SlowThreshold == 0 {
		opts.SlowThreshold = defaultSlowThreshold
	}
	if opts.MaxDeadline == 0 {
		opts.MaxDeadline = defaultMaxDeadline
	}
	if opts.MaxInFlightBytes == 0 {
		opts.MaxInFlightBytes = 4 * opts.MaxBodyBytes
	}
	if opts.MaxInFlightRows == 0 {
		opts.MaxInFlightRows = 4 * int64(opts.MaxBatchRows)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	pool := NewPool(opts.Workers)
	pool.faults = opts.Faults
	if opts.ModelConcurrency <= 0 {
		opts.ModelConcurrency = 2 * pool.Workers()
	}
	if opts.ModelQueue == 0 {
		opts.ModelQueue = 4 * opts.ModelConcurrency
	}
	if opts.ModelQueue < 0 {
		opts.ModelQueue = 0
	}
	s := &Server{
		reg:      reg,
		pool:     pool,
		metrics:  NewMetrics(),
		adm:      newAdmission(opts),
		mux:      http.NewServeMux(),
		opts:     opts,
		logger:   logger,
		slowRing: obs.NewRing(slowRingSize),
		start:    time.Now(),
		cluster:  opts.Cluster,
	}
	if opts.Faults != nil {
		reg.SetIOHook(func(op string) error {
			p := faultinject.PointRegistryRead
			if op == "write" {
				p = faultinject.PointRegistryWrite
			}
			return opts.Faults.Fire(p)
		})
	}
	s.metrics.SetPoolStats(s.pool.Stats)
	s.metrics.SetAdmission(s.adm)
	s.metrics.SetDraining(s.draining.Load)
	s.metrics.SetRegistry(reg.Stats)
	if s.cluster != nil {
		s.metrics.SetCluster(s.cluster.Snapshot)
	}
	s.mux.HandleFunc("POST /v1/models", s.instrument("fit", s.handleFit))
	s.mux.HandleFunc("GET /v1/models", s.instrument("list", s.handleList))
	s.mux.HandleFunc("GET /v1/models/{id}", s.instrument("get", s.handleGet))
	s.mux.HandleFunc("GET /v1/models/{id}/rule", s.instrument("rule", s.handleRule))
	s.mux.HandleFunc("DELETE /v1/models/{id}", s.instrument("delete", s.handleDelete))
	s.mux.HandleFunc("POST /v1/models/{id}/score", s.instrument("score", s.handleScore))
	s.mux.HandleFunc("POST /v1/models/{id}/rank", s.instrument("rank", s.handleRank))
	// Observability and lifecycle-control routes bypass admission and the
	// drain shed: a draining node must keep answering its orchestrator
	// and its monitoring.
	s.mux.HandleFunc("GET /healthz", s.instrumentOps("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /statusz", s.instrumentOps("statusz", s.handleStatusz))
	s.mux.HandleFunc("GET /controlz", s.instrumentOps("controlz", s.handleControlz))
	s.mux.HandleFunc("POST /controlz/drain", s.instrumentOps("drain", s.handleDrain))
	s.mux.HandleFunc("POST /controlz/resume", s.instrumentOps("resume", s.handleResume))
	// Replication endpoints for the serving group (internal/cluster). They
	// ride the ops instrumentation: a draining node must keep answering
	// digests and exports so peers can anti-entropy off it, and install
	// replication must not be sheddable by admission budgets. The digest
	// and export handlers are registry-backed and work on a single node
	// too, so a group can form around a node started without -peers.
	s.mux.HandleFunc("POST /clusterz/install", s.instrumentOps("cluster_install", s.handleClusterInstall))
	s.mux.HandleFunc("GET /clusterz/digest", s.instrumentOps("cluster_digest", s.handleClusterDigest))
	s.mux.HandleFunc("GET /clusterz/export/{id}", s.instrumentOps("cluster_export", s.handleClusterExport))
	s.mux.HandleFunc("POST /clusterz/draining", s.instrumentOps("cluster_draining", s.handleClusterDraining))
	s.mux.HandleFunc("GET /clusterz", s.instrumentOps("clusterz", s.handleClusterz))
	s.mux.Handle("GET /metrics", s.metrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases the worker pool.
func (s *Server) Close() { s.pool.Close() }

// Metrics exposes the collector (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// statusWriter captures the response code for metrics and carries the
// request's trace through the handler (handlers reach it with traceOf).
// It is pooled — together with its embedded body limiter — so the
// per-request instrumentation costs no allocation beyond the request-ID
// string and its header slot.
type statusWriter struct {
	http.ResponseWriter
	status  int
	trace   *obs.Trace
	model   string // model ID of a score/rank request, for slow logs
	rows    int    // rows scored, for slow logs
	charged int64  // bytes charged against the in-flight byte budget
	limiter bodyLimiter
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

var swPool sync.Pool

func getStatusWriter() *statusWriter {
	if sw, ok := swPool.Get().(*statusWriter); ok {
		return sw
	}
	return &statusWriter{}
}

func putStatusWriter(sw *statusWriter) {
	*sw = statusWriter{}
	swPool.Put(sw)
}

// traceOf returns the trace carried by a handler's ResponseWriter (nil for
// a writer the instrumentation middleware did not wrap, as in direct
// handler tests). The obs.Trace recording methods are nil-safe, so callers
// use the result unconditionally.
func traceOf(w http.ResponseWriter) *obs.Trace {
	if sw, ok := w.(*statusWriter); ok {
		return sw.trace
	}
	return nil
}

// traceCtx adapts a possibly-nil trace to the context the pool expects.
// A non-nil trace is its own context, so this is allocation-free.
func traceCtx(tr *obs.Trace) context.Context {
	if tr == nil {
		return context.Background()
	}
	return tr
}

// shardKeyOf returns the metric shard key for a request: its trace ID, or
// 0 without a trace.
func shardKeyOf(tr *obs.Trace) uint64 {
	if tr == nil {
		return 0
	}
	return tr.ID()
}

// bodyLimiter is http.MaxBytesReader without the per-request allocation:
// it lives inside the pooled statusWriter. Reads beyond the limit return
// *http.MaxBytesError exactly like the stdlib reader, so the 413 mapping
// in writeError and the decode paths is unchanged.
type bodyLimiter struct {
	rc        io.ReadCloser
	remaining int64
	limit     int64
	tripped   bool
	faults    *faultinject.Faults
}

func (l *bodyLimiter) Read(p []byte) (int, error) {
	if l.tripped {
		return 0, &http.MaxBytesError{Limit: l.limit}
	}
	// Slow-client and truncated-body faults land here, between the handler
	// and the transport — exactly where a stalled peer would.
	if err := l.faults.Fire(faultinject.PointBodyRead); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	// Read one byte past the budget so an exactly-limit-sized body
	// succeeds and limit+1 trips, matching MaxBytesReader.
	if int64(len(p)) > l.remaining+1 {
		p = p[:l.remaining+1]
	}
	n, err := l.rc.Read(p)
	if int64(n) <= l.remaining {
		l.remaining -= int64(n)
		return n, err
	}
	l.tripped = true
	n = int(l.remaining)
	l.remaining = 0
	return n, &http.MaxBytesError{Limit: l.limit}
}

func (l *bodyLimiter) Close() error { return l.rc.Close() }

func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumented(route, h, false)
}

// instrumentOps wraps observability and lifecycle-control handlers: same
// tracing and metrics as instrument, but no drain shed, no deadline, no
// admission budgets — a draining node must keep answering its monitoring
// and its orchestrator.
func (s *Server) instrumentOps(route string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumented(route, h, true)
}

func (s *Server) instrumented(route string, h http.HandlerFunc, ops bool) http.HandlerFunc {
	// The route's sharded stats are resolved once at registration, so the
	// per-request path touches no map and no lock.
	rs := s.metrics.Route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.StartTrace(r.Context())
		sw := getStatusWriter()
		sw.ResponseWriter = w
		sw.status = http.StatusOK
		sw.trace = tr
		sw.limiter = bodyLimiter{rc: r.Body, remaining: s.opts.MaxBodyBytes, limit: s.opts.MaxBodyBytes, faults: s.opts.Faults}
		r.Body = &sw.limiter
		w.Header().Set("X-Request-Id", tr.IDString())
		s.metrics.InFlight().Add(1)
		// Deferred so a panicking handler (net/http recovers it per
		// connection) still counts as a request — and as an error, not as
		// the 200 the status writer was initialised with. The writer is
		// not repooled on the panic path, but its budget charge is still
		// released either way.
		defer func() {
			s.metrics.InFlight().Add(-1)
			s.adm.bytes.release(sw.charged)
			elapsed := time.Since(tr.Start())
			if rec := recover(); rec != nil {
				rs.Observe(tr.ID(), http.StatusInternalServerError, elapsed)
				s.finishTrace(route, tr, sw, http.StatusInternalServerError, elapsed)
				tr.Release()
				panic(rec)
			}
			rs.Observe(tr.ID(), sw.status, elapsed)
			s.finishTrace(route, tr, sw, sw.status, elapsed)
			tr.Release()
			putStatusWriter(sw)
		}()
		if !ops {
			if s.draining.Load() {
				// Connection: close steers the next request of a keep-alive
				// client (or the LB in front) to a healthy node.
				sw.Header().Set("Connection", "close")
				s.adm.recordShed(tr.ID(), shedDraining)
				writeError(sw, &shedError{status: http.StatusServiceUnavailable, reason: shedDraining,
					msg: "server draining; retry against another node"})
				return
			}
			d, err := parseDeadline(r, s.opts.MaxDeadline)
			if err != nil {
				writeError(sw, err)
				return
			}
			if d > 0 {
				tr.SetDeadline(tr.Start().Add(d))
			}
			if n := r.ContentLength; n > 0 {
				if !s.adm.bytes.tryAcquire(n) {
					s.adm.recordShed(tr.ID(), shedBytes)
					writeError(sw, &shedError{status: http.StatusTooManyRequests, reason: shedBytes,
						msg: "server at its in-flight byte budget; retry later"})
					return
				}
				sw.charged = n
			}
		}
		h(sw, r)
	}
}

// finishTrace emits the request's structured log line — Warn with the full
// stage breakdown when it crossed the slow threshold (also retained for
// /statusz), Info when it fell in the 1-in-TraceSample access sample — and
// is a pair of comparisons otherwise.
func (s *Server) finishTrace(route string, tr *obs.Trace, sw *statusWriter, status int, elapsed time.Duration) {
	slow := s.opts.SlowThreshold > 0 && elapsed >= s.opts.SlowThreshold
	sampled := s.opts.TraceSample > 0 && tr.ID()%uint64(s.opts.TraceSample) == 0
	if !slow && !sampled {
		return
	}
	if slow {
		s.metrics.AddSlow(tr.ID())
		s.slowRing.Push(obs.Summarize(tr, route, sw.model, status, sw.rows, elapsed))
	}
	attrs := tr.LogAttrs()
	attrs = append(attrs,
		slog.String("route", route),
		slog.Int("status", status),
		slog.Float64("total_ms", float64(elapsed.Nanoseconds())/1e6),
	)
	if sw.model != "" {
		attrs = append(attrs, slog.String("model", sw.model), slog.Int("rows", sw.rows))
	}
	msg, level := "request", slog.LevelInfo
	if slow {
		msg, level = "slow request", slog.LevelWarn
	}
	s.logger.LogAttrs(context.Background(), level, msg, attrs...)
}

// httpError is an error with an HTTP status attached.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	var se *shedError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &se):
		status = se.status
	case errors.As(err, &he):
		status = he.status
	case errors.As(err, &mbe):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, registry.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrPoolClosed),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	}
	// Every shed or shutdown answer carries a retry hint: the condition is
	// transient by construction, and clients with backoff honour it.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	resp := ErrorResponse{Error: err.Error()}
	if tr := traceOf(w); tr != nil {
		resp.RequestID = tr.IDString()
	}
	writeJSON(w, status, resp)
}

// decodeJSONBytes is decodeJSON over an already-read body, used when the
// fast-path parser declined it.
func decodeJSONBytes(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("decoding request body: %v", err)
	}
	// Reject trailing garbage so truncated uploads fail loudly.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return badRequest("unexpected data after JSON body")
	}
	return nil
}

// writeRawJSON writes a pre-encoded JSON document, mirroring writeJSON's
// framing (json.Encoder terminates documents with a newline).
func writeRawJSON(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	w.Write([]byte{'\n'})
}

// bodyPool and respPool recycle request-body and response-encode buffers
// between score/rank calls; buffers past poolMaxBuf are left for the
// collector rather than pinned forever. Pooled as *[]byte so Put does not
// re-box the slice header every time. framePool, scoresPool and
// positionsPool do the same for the decoded request frame, the score
// output and /rank's positions, which closes the loop: a steady-state
// batch re-uses one body buffer, one contiguous frame, one score slice,
// one positions slice and one response buffer — a handful of allocations
// per request regardless of row count.
var (
	bodyPool      sync.Pool
	respPool      sync.Pool
	framePool     sync.Pool
	scoresPool    sync.Pool
	positionsPool sync.Pool
)

const poolMaxBuf = 1 << 20

// poolMaxFrameVals bounds the pooled frame, score and positions buffers (in
// elements, 1 MiB of frame backing) just as poolMaxBuf bounds the byte buffers.
const poolMaxFrameVals = 1 << 17

func getFrame() *frame.Frame {
	if f, ok := framePool.Get().(*frame.Frame); ok {
		return f
	}
	return &frame.Frame{}
}

func putFrame(f *frame.Frame) {
	if f.Cap() > poolMaxFrameVals {
		return
	}
	framePool.Put(f)
}

func getScores() []float64 {
	if p, ok := scoresPool.Get().(*[]float64); ok {
		return (*p)[:0]
	}
	return nil
}

func putScores(s []float64) {
	if cap(s) == 0 || cap(s) > poolMaxFrameVals {
		return
	}
	scoresPool.Put(&s)
}

func getPositions() []int {
	if p, ok := positionsPool.Get().(*[]int); ok {
		return (*p)[:0]
	}
	return nil
}

func putPositions(p []int) {
	if cap(p) == 0 || cap(p) > poolMaxFrameVals {
		return
	}
	positionsPool.Put(&p)
}

func getBuf(pool *sync.Pool) []byte {
	if p, ok := pool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

func putBuf(pool *sync.Pool, b []byte) {
	if cap(b) == 0 || cap(b) > poolMaxBuf {
		return
	}
	pool.Put(&b)
}

// readBody reads the whole (MaxBytesReader-limited) body into a pooled
// buffer pre-sized from Content-Length, avoiding io.ReadAll's growth
// copies on megabyte batches. Content-Length is only trusted up to
// maxBody — the same bound MaxBytesReader enforces on the actual read —
// so a forged header cannot allocate beyond the configured request cap.
// The caller returns the buffer via putBuf (which keeps only buffers up
// to poolMaxBuf).
//
// A pooled buffer too small for the body is dropped, not put back: every
// request then takes at most one buffer from the pool and returns at most
// one, so the pool holds no more buffers than there are requests in flight.
// Putting it back would add a buffer to the pool on every miss, and with
// bodies of mixed sizes the pool (all of it live heap, and so doubled by the
// GC's heap goal) would grow for as long as no collection empties it.
func readBody(r *http.Request, maxBody int64) ([]byte, error) {
	buf := getBuf(&bodyPool)
	if n := r.ContentLength; n > 0 && n+1 <= maxBody+2 && int64(cap(buf)) < n+1 {
		buf = make([]byte, 0, n+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return mbe
		}
		return badRequest("decoding request body: %v", err)
	}
	// Reject trailing garbage so truncated uploads fail loudly.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return mbe
		}
		return badRequest("unexpected data after JSON body")
	}
	return nil
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req FitRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	name := req.Name
	if name == "" {
		name = defaultRuleName
	}
	if !registry.ValidName(name) {
		writeError(w, badRequest("invalid model name %q", req.Name))
		return
	}
	switch {
	case len(req.Rule) > 0 && len(req.Rows) > 0:
		writeError(w, badRequest("request has both rows and rule; send one"))
	case len(req.Rule) > 0 && (len(req.Alpha) > 0 || req.Degree != 0 || req.Restarts != 0 || req.Seed != 0):
		// Fit parameters cannot change an already-fitted rule; silently
		// dropping them would hide a contradictory request.
		writeError(w, badRequest("rule installs ignore fit parameters; remove alpha/degree/restarts/seed"))
	case len(req.Rule) > 0:
		s.installRule(w, name, req.Rule)
	case len(req.Rows) > 0:
		s.fitRows(w, name, &req)
	default:
		writeError(w, badRequest("request needs rows (to fit) or rule (to install)"))
	}
}

func (s *Server) installRule(w http.ResponseWriter, name string, rule json.RawMessage) {
	m, err := core.Load(bytes.NewReader(rule))
	if err != nil {
		writeError(w, badRequest("invalid rule document: %v", err))
		return
	}
	meta, err := s.reg.Put(name, m, 0, 0)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.cluster != nil {
		s.cluster.BroadcastInstall(meta.ID)
	}
	writeJSON(w, http.StatusCreated, FitResponse{Model: meta})
}

func (s *Server) fitRows(w http.ResponseWriter, name string, req *FitRequest) {
	alpha, err := order.NewDirection(req.Alpha...)
	if err != nil {
		writeError(w, badRequest("invalid alpha: %v", err))
		return
	}
	if len(req.Rows) > s.opts.MaxBatchRows {
		writeError(w, badRequest("%d rows exceeds the limit of %d", len(req.Rows), s.opts.MaxBatchRows))
		return
	}
	// Row shape and finiteness are validated inside core.Fit; its error
	// surfaces below as a 400.
	// Restarts multiply the whole alternating-minimisation cost, so an
	// unbounded client value is a CPU bomb like an oversized grid.
	const maxRestarts = 32
	if req.Restarts > maxRestarts {
		writeError(w, badRequest("restarts %d exceeds the limit of %d", req.Restarts, maxRestarts))
		return
	}
	restarts := req.Restarts
	if restarts <= 0 {
		restarts = 3
	}
	m, err := core.Fit(req.Rows, core.Options{
		Alpha:    alpha,
		Degree:   req.Degree,
		Restarts: restarts,
		Seed:     req.Seed,
		// Parallel projection is bit-identical to serial (per core.Options)
		// and large fits would otherwise pin one core for minutes. With
		// Restarts > 1 core.Fit also runs the restarts concurrently, at
		// most Workers wide, splitting these workers between them — the
		// parallelism never changes the fitted model, so /v1/models stays
		// deterministic per seed. (The fit additionally warm-starts its
		// projection step; that is the default fit path, deterministic per
		// seed too, though not bit-identical to a NoWarmStart fit.)
		Workers: s.pool.Workers(),
	})
	if err != nil {
		writeError(w, badRequest("fit failed: %v", err))
		return
	}
	meta, err := s.reg.Put(name, m, len(req.Rows), m.ExplainedVariance())
	if err != nil {
		writeError(w, err)
		return
	}
	if s.cluster != nil {
		s.cluster.BroadcastInstall(meta.ID)
	}
	writeJSON(w, http.StatusCreated, FitResponse{
		Model:     meta,
		Scores:    m.Scores,
		Positions: order.RankFromScores(m.Scores),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ModelList{Models: s.reg.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	meta, err := s.reg.GetMeta(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

func (s *Server) handleRule(w http.ResponseWriter, r *http.Request) {
	doc, err := s.reg.RuleDocument(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// scoreRows is the shared validation + worker-pool scoring path behind
// /score and /rank. The request body goes through a hand-rolled decoder for
// the overwhelmingly common {"rows": [[...]]} shape (reflection-based JSON
// decoding dominates large-batch latency otherwise), parsed straight into
// one pooled contiguous frame that the worker pool then shards by row
// range; anything that parser does not recognise byte-for-byte — including
// rows that do not match the model's dimension — falls back to
// encoding/json so error behaviour (unknown fields, type mismatches,
// trailing garbage, the canonical dimension message) is exactly the
// stdlib path's. The returned scores slice is pooled; handlers return it
// via putScores after encoding the response.
//
// Stage spans recorded on tr: normalize (metadata resolution, and again
// for the model load — the per-row min–max transform itself is fused into
// the score kernels and lands in the score spans), decode (body read +
// parse), validate (shape and batch-size checks), score (one span per pool
// shard, recorded by the workers). The caller records encode.
//
// Precision negotiation: scoring is always float64. A request carrying
// "X-Precision: float32" is answered "X-Precision: float64" with the same
// body as the request without the header, so a client that asks learns
// which precision its scores carry. Any other header value is ignored (no
// response header), so the negotiation can never turn a typo into an
// error.
func (s *Server) scoreRows(w http.ResponseWriter, tr *obs.Trace, r *http.Request) (id string, scores []float64, err error) {
	id = r.PathValue("id")
	wantF32 := strings.EqualFold(r.Header.Get("X-Precision"), "float32")
	// Validate against the metadata first: a request that will be
	// rejected must not pay a model load (disk read + decode + LRU churn).
	meta, err := s.reg.GetMeta(id)
	if err != nil {
		return id, nil, err
	}
	tr.EndStage(obs.StageNormalize)
	key := shardKeyOf(tr)
	// Admission. A request with an armed deadline is first checked for
	// feasibility against the model's observed p50 score latency — a batch
	// that cannot finish in time is shed before it costs a body read, a
	// decode, or a concurrency slot. Then the model's limiter bounds
	// concurrent scoring (queueing up to the wait cap); holding the slot
	// through decode keeps one model's oversized bodies from monopolising
	// decode CPU too.
	if tr.HasDeadline() {
		if rem, ok := tr.Remaining(); ok {
			if rem <= 0 {
				s.adm.recordShed(key, shedExpired)
				return id, nil, &shedError{status: http.StatusServiceUnavailable, reason: shedExpired,
					msg: "deadline already expired"}
			}
			if p50 := s.metrics.Model(id).lat.QuantileUs(0.5); p50 > 0 && rem < time.Duration(p50)*time.Microsecond {
				s.adm.recordShed(key, shedDeadline)
				return id, nil, &shedError{status: http.StatusServiceUnavailable, reason: shedDeadline,
					msg: fmt.Sprintf("remaining deadline %v is below the model's observed p50 score time %v",
						rem.Round(time.Millisecond), time.Duration(p50)*time.Microsecond)}
			}
		}
	}
	lim := s.adm.limiter(id)
	wait, err := lim.acquire(r.Context(), tr)
	if err != nil {
		var se *shedError
		if errors.As(err, &se) {
			s.adm.recordShed(key, se.reason)
		}
		return id, nil, err
	}
	defer lim.release()
	s.adm.waitHist.Observe(key, wait.Microseconds())
	tr.EndStage(obs.StageAdmit)
	body, err := readBody(r, s.opts.MaxBodyBytes)
	if err != nil {
		putBuf(&bodyPool, body)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return id, nil, mbe
		}
		return id, nil, badRequest("reading request body: %v", err)
	}
	if ferr := s.opts.Faults.Fire(faultinject.PointDecode); ferr != nil {
		putBuf(&bodyPool, body)
		return id, nil, ferr
	}
	fr := getFrame()
	if parseScoreFrame(fr, body, meta.Dim) {
		// The frame owns the values; the body is done. The fast parser
		// only yields finite values of the model's dimension (JSON has no
		// NaN/Inf literals, range errors reject, EndRow enforces width),
		// so no further row validation is needed; the empty batch still
		// 400s with the canonical message below.
		putBuf(&bodyPool, body)
		defer putFrame(fr)
		tr.EndStage(obs.StageDecode)
		if fr.N() > s.opts.MaxBatchRows {
			return id, nil, badRequest("%d rows exceeds the limit of %d", fr.N(), s.opts.MaxBatchRows)
		}
		if fr.N() == 0 {
			return id, nil, badRequest("invalid rows: %v", order.ValidateFrame(fr, meta.Dim))
		}
		if !s.adm.rows.tryAcquire(int64(fr.N())) {
			s.adm.recordShed(key, shedRows)
			return id, nil, &shedError{status: http.StatusTooManyRequests, reason: shedRows,
				msg: "server at its in-flight row budget; retry later"}
		}
		defer s.adm.rows.release(int64(fr.N()))
		tr.EndStage(obs.StageValidate)
		m, _, err := s.reg.Get(id)
		if err != nil {
			return id, nil, err
		}
		tr.EndStage(obs.StageNormalize)
		negotiatePrecision(w, wantF32)
		t0 := time.Now()
		var serr error
		scores, serr = s.pool.ScoreFrame(traceCtx(tr), m, fr, getScores())
		tr.SkipStage() // score wall time is covered by the shard spans
		if serr != nil {
			putScores(scores)
			return id, nil, s.scoreFailed(tr, key, fr.N(), serr)
		}
		s.metrics.AddRows(key, len(scores))
		s.metrics.Model(id).ObserveScore(key, len(scores), time.Since(t0))
		return id, scores, nil
	}
	putFrame(fr)
	var req ScoreRequest
	derr := decodeJSONBytes(body, &req)
	putBuf(&bodyPool, body)
	if derr != nil {
		return id, nil, derr
	}
	tr.EndStage(obs.StageDecode)
	rows := req.Rows
	if len(rows) > s.opts.MaxBatchRows {
		return id, nil, badRequest("%d rows exceeds the limit of %d", len(rows), s.opts.MaxBatchRows)
	}
	if err := order.ValidateRows(rows, meta.Dim); err != nil {
		return id, nil, badRequest("invalid rows: %v", err)
	}
	if !s.adm.rows.tryAcquire(int64(len(rows))) {
		s.adm.recordShed(key, shedRows)
		return id, nil, &shedError{status: http.StatusTooManyRequests, reason: shedRows,
			msg: "server at its in-flight row budget; retry later"}
	}
	defer s.adm.rows.release(int64(len(rows)))
	tr.EndStage(obs.StageValidate)
	m, _, err := s.reg.Get(id)
	if err != nil {
		return id, nil, err
	}
	tr.EndStage(obs.StageNormalize)
	negotiatePrecision(w, wantF32)
	t0 := time.Now()
	var serr error
	scores, serr = s.pool.ScoreBatch(traceCtx(tr), m, rows)
	tr.SkipStage()
	if serr != nil {
		putScores(scores)
		return id, nil, s.scoreFailed(tr, key, len(rows), serr)
	}
	s.metrics.AddRows(key, len(scores))
	s.metrics.Model(id).ObserveScore(key, len(scores), time.Since(t0))
	return id, scores, nil
}

// negotiatePrecision answers a request's X-Precision ask: when the client
// asked for float32, the response reports the float64 that serves every
// batch.
func negotiatePrecision(w http.ResponseWriter, wantF32 bool) {
	if wantF32 {
		w.Header().Set("X-Precision", "float64")
	}
}

// scoreFailed maps a scoring error — cooperative cancellation, deadline
// expiry, or the pool racing shutdown — into the shed taxonomy, with the
// partial work the trace recorded in the message so a client knows how
// much of its batch was abandoned.
func (s *Server) scoreFailed(tr *obs.Trace, key uint64, total int, err error) error {
	if errors.Is(err, ErrPoolClosed) {
		s.adm.recordShed(key, shedClosed)
		return &shedError{status: http.StatusServiceUnavailable, reason: shedClosed,
			msg: "scoring pool closed; server shutting down"}
	}
	s.adm.recordShed(key, shedExpired)
	return &shedError{status: http.StatusServiceUnavailable, reason: shedExpired,
		msg: fmt.Sprintf("request expired mid-batch: scored %d of %d rows", tr.RowsDone(), total)}
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if s.cluster != nil && s.maybeForward(w, r) {
		return
	}
	tr := traceOf(w)
	id, scores, err := s.scoreRows(w, tr, r)
	if sw, ok := w.(*statusWriter); ok {
		sw.model = id
		sw.rows = len(scores)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	defer putScores(scores) // encoding is synchronous on both paths below
	buf := getBuf(&respPool)
	if b, ok := appendScoreResponse(buf, id, scores, nil); ok {
		writeRawJSON(w, b)
		putBuf(&respPool, b)
		tr.EndStage(obs.StageEncode)
		return
	}
	putBuf(&respPool, buf)
	writeJSON(w, http.StatusOK, ScoreResponse{ModelID: id, Count: len(scores), Scores: scores})
	tr.EndStage(obs.StageEncode)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	if s.cluster != nil && s.maybeForward(w, r) {
		return
	}
	tr := traceOf(w)
	id, scores, err := s.scoreRows(w, tr, r)
	if sw, ok := w.(*statusWriter); ok {
		sw.model = id
		sw.rows = len(scores)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	defer putScores(scores)
	positions := order.RankInto(getPositions(), scores)
	defer putPositions(positions)
	buf := getBuf(&respPool)
	if b, ok := appendScoreResponse(buf, id, scores, positions); ok {
		writeRawJSON(w, b)
		putBuf(&respPool, b)
		tr.EndStage(obs.StageEncode)
		return
	}
	putBuf(&respPool, buf)
	writeJSON(w, http.StatusOK, RankResponse{
		ModelID:   id,
		Count:     len(scores),
		Scores:    scores,
		Positions: positions,
	})
	tr.EndStage(obs.StageEncode)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{Status: "ok", Models: s.reg.Len()}
	if s.cluster != nil {
		h.PeersUp, h.PeersTotal = s.cluster.PeerCounts()
	}
	rs := s.reg.Stats()
	h.RegistryOK = rs.OK()
	h.Quarantined = rs.Quarantined
	h.PendingWrites = rs.PendingWrites
	// A draining node reports unhealthy so load balancers stop routing to
	// it, while /statusz and /controlz keep answering with full detail.
	if s.draining.Load() {
		h.Status = "draining"
		h.Draining = true
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}
