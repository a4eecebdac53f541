package server

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/faultinject"
	"rpcrank/internal/frame"
	"rpcrank/internal/obs"
)

// concurrencyThreshold is the batch size below which sharding overhead
// outweighs the win and scoring stays on the caller's goroutine. Scoring
// one row is a grid seed plus a 1-D refinement — microseconds — so small
// batches are cheaper serial.
const concurrencyThreshold = 64

// ErrPoolClosed is returned by ScoreFrame/ScoreBatch when the pool has
// been closed — a request racing shutdown. The server maps it to 503 with
// Retry-After so the client retries against a healthy node instead of
// having its batch silently stolen by a dying one.
var ErrPoolClosed = errors.New("scoring pool closed")

// Pool is a fixed-size worker pool that shards batch scoring across
// GOMAXPROCS goroutines. Row projections are independent (Eq. 22), so the
// sharded result is bit-identical to the serial one. One pool is shared by
// all requests; tasks are row ranges of a batch's shared frame, fanned out
// over a channel. Workers borrow compiled scorers from the model's internal
// pool (core.Model.AcquireScorer), so steady-state batches allocate neither
// row storage nor scorer scratch.
//
// Batches carrying a cancellable context (a trace with an armed deadline,
// or a request context with a Done channel) are cooperatively cancellable:
// workers poll between row blocks and the first shard to observe expiry
// trips a batch-wide abort, so every worker frees itself mid-batch instead
// of finishing doomed work. Batches without either signal pay nothing.
type Pool struct {
	workers int
	tasks   chan poolTask
	wg      sync.WaitGroup
	busy    atomic.Int64 // workers currently inside a task

	// faults, when non-nil, is the fault-injection schedule: worker panics
	// at task pickup and latency between score sub-ranges.
	faults *faultinject.Faults

	// closeMu fences Close against in-flight ScoreFrame submitters: a
	// batch holds the read side while feeding the channel, so Close
	// cannot close it mid-send (a shutdown that drains slower than its
	// timeout would otherwise panic). After Close, submissions fail with
	// ErrPoolClosed.
	closeMu sync.RWMutex
	closed  bool
}

// poolTask is one shard: score rows [lo, hi) of f into out[lo:hi]. The
// frame and output slice are shared across the batch's tasks; the ranges
// are disjoint, so no synchronisation beyond done is needed. tr, when
// non-nil, receives a score span for the shard. bc, when non-nil, carries
// the batch's cancellation state.
type poolTask struct {
	model  *core.Model
	f      *frame.Frame
	out    []float64
	lo, hi int
	shard  int32
	tr     *obs.Trace
	bc     *batchCancel
	done   *sync.WaitGroup
	fail   *atomic.Pointer[any] // first panic value of the batch, if any
}

// NewPool starts a pool with the given number of workers (≤ 0 selects
// GOMAXPROCS). Close releases the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan poolTask, 4*workers),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	// Label the worker goroutine so CPU profiles of rpcd separate pool
	// scoring from handler work.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("worker", "score-pool")))
	for t := range p.tasks {
		p.runTask(t)
	}
}

// runTask scores one row range. A panic in Scorer.Score (a poison model,
// or an injected worker fault) must not kill the worker — and with it the
// process — nor leave the batch's WaitGroup hanging: it is captured for
// the submitter to re-raise on the request goroutine, where net/http's
// recover turns it into one failed request instead of a daemon crash. The
// borrowed scorer is dropped on panic rather than released, so a poisoned
// scratch never re-enters the model's pool. The trace span is recorded
// before done.Done(), so the submitter's Wait is the barrier that makes
// every shard span visible.
//
// Cancellation: when the batch carries a batchCancel, the scorer polls it
// between row blocks; a shard that stops short trips the batch-wide abort
// so sibling shards (and queued ones, which skip scoring entirely) free
// their workers too. Cancellation lands on block boundaries only, so the
// borrowed scorer is released back to the model's pool in a clean state.
func (p *Pool) runTask(t poolTask) {
	p.busy.Add(1)
	var t0 time.Time
	if t.tr != nil {
		t0 = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			// Box a copy: taking &r itself would move r to the heap on
			// every shard, panicking or not.
			v := r
			t.fail.CompareAndSwap(nil, &v)
		}
		if t.tr != nil {
			t.tr.AddSpan(obs.StageScore, int(t.shard), t0, time.Now())
		}
		p.busy.Add(-1)
		t.done.Done()
	}()
	var cctx context.Context
	if t.bc != nil {
		if t.bc.Err() != nil {
			// The batch is already dead: free this worker without touching
			// a scorer. The shard still records its (empty) span.
			return
		}
		cctx = t.bc
	}
	p.faults.Fire(faultinject.PointWorker)
	sc := t.model.AcquireScorer()
	n := p.scoreRange(cctx, sc, t.out, t.f, t.lo, t.hi)
	t.model.ReleaseScorer(sc)
	t.tr.AddRowsDone(n)
	if n < t.hi-t.lo && t.bc != nil {
		t.bc.aborted.Store(true)
	}
}

// scoreRange scores [lo, hi) through the cancellable range scorer. With a
// fault schedule configured it splits the range into sub-ranges with a
// PointScoreBlock firing between them, so injected latency lands inside a
// shard — the window deadline cancellation must close. Without one (the
// production path) it is a single call.
func (p *Pool) scoreRange(ctx context.Context, sc *core.Scorer, out []float64, f *frame.Frame, lo, hi int) int {
	if p == nil || p.faults == nil {
		return scoreFrameRange(ctx, sc, out, f, lo, hi)
	}
	const faultChunk = 256
	total := 0
	for b := lo; b < hi; b += faultChunk {
		e := b + faultChunk
		if e > hi {
			e = hi
		}
		p.faults.Fire(faultinject.PointScoreBlock)
		n := scoreFrameRange(ctx, sc, out, f, b, e)
		total += n
		if n < e-b {
			break
		}
	}
	return total
}

// scoreFrameRange dispatches to the cancellable scorer only when there is
// a context to poll, keeping the uncontended path free of per-block
// checks.
func scoreFrameRange(ctx context.Context, sc *core.Scorer, out []float64, f *frame.Frame, lo, hi int) int {
	if ctx == nil {
		sc.ScoreFrameRange(out, f, lo, hi)
		return hi - lo
	}
	return sc.ScoreFrameRangeCtx(ctx, out, f, lo, hi)
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Stats reports the pool's live state: tasks waiting in the queue, workers
// currently scoring, and the pool size. Queue depth and busy count are
// instantaneous reads for gauges, not a consistent snapshot.
func (p *Pool) Stats() (queue, busy, workers int) {
	return len(p.tasks), int(p.busy.Load()), p.workers
}

// Close stops the workers after in-flight batches finish submitting.
// ScoreFrame calls that race with (or follow) Close fail with
// ErrPoolClosed, which the server answers 503 + Retry-After — shutdown
// neither panics a handler nor silently serves from a dying node.
func (p *Pool) Close() {
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.closeMu.Unlock()
	p.wg.Wait()
}

// ScoreFrame scores every row of f with m into dst (reused when it has the
// capacity, allocated otherwise) and returns the slice of f.N() scores.
// Batches of at least concurrencyThreshold rows are split into row ranges
// scored by the pool over the shared frame; smaller ones run inline on a
// borrowed scorer. The scores are identical either way, and — beyond a
// possible dst growth — the steady-state batch performs no per-row
// allocation at all. When ctx carries an obs.Trace, each shard records a
// score span on it (worker index = shard); by return, all spans are
// visible.
//
// When ctx is cancellable (a Done channel, or a trace with an armed
// deadline), the batch is cooperatively cancelled at row-block granularity:
// the error is ctx.Err()'s cause, the returned slice holds only partially
// valid scores, and the trace's RowsDone reports how far the batch got.
// After Close, ErrPoolClosed.
func (p *Pool) ScoreFrame(ctx context.Context, m *core.Model, f *frame.Frame, dst []float64) ([]float64, error) {
	tr := obs.FromContext(ctx)
	n := f.N()
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	// One allocation per cancellable batch; requests without a deadline or
	// a cancellable parent (ctx.Done() == nil) skip it entirely, keeping
	// the uncontended serving path's alloc count flat.
	var bc *batchCancel
	if ctx != nil && (ctx.Done() != nil || (tr != nil && tr.HasDeadline())) {
		bc = &batchCancel{ctx: ctx}
		if err := bc.Err(); err != nil {
			return dst[:0], err
		}
	}
	if p == nil || n < concurrencyThreshold {
		return p.scoreInlineCancel(bc, tr, m, f, dst)
	}
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return dst[:0], ErrPoolClosed
	}
	// Aim for a few chunks per worker so an uneven row mix still balances,
	// but never chunks so small the channel hops dominate.
	chunk := (n + 4*p.workers - 1) / (4 * p.workers)
	if chunk < concurrencyThreshold/2 {
		chunk = concurrencyThreshold / 2
	}
	var done sync.WaitGroup
	var fail atomic.Pointer[any]
	shard := int32(0)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		done.Add(1)
		p.tasks <- poolTask{model: m, f: f, out: dst, lo: lo, hi: hi, shard: shard, tr: tr, bc: bc, done: &done, fail: &fail}
		shard++
	}
	p.closeMu.RUnlock()
	done.Wait()
	if r := fail.Load(); r != nil {
		// Re-raise the worker's panic on the request goroutine, where the
		// HTTP server's per-connection recover contains it.
		panic(*r)
	}
	if bc != nil {
		if err := bc.ctx.Err(); err != nil {
			return dst, err
		}
		if bc.aborted.Load() {
			return dst, context.Canceled
		}
	}
	return dst, nil
}

// scoreInlineCancel is the small-batch path: one borrowed scorer on the
// caller's goroutine, with the same cancellation contract as the sharded
// path.
func (p *Pool) scoreInlineCancel(bc *batchCancel, tr *obs.Trace, m *core.Model, f *frame.Frame, dst []float64) ([]float64, error) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var cctx context.Context
	if bc != nil {
		cctx = bc
	}
	sc := m.AcquireScorer()
	n := p.scoreRange(cctx, sc, dst, f, 0, f.N())
	m.ReleaseScorer(sc)
	tr.AddRowsDone(n)
	if tr != nil {
		tr.AddSpan(obs.StageScore, -1, t0, time.Now())
	}
	if n < f.N() {
		if err := bc.Err(); err != nil {
			return dst, err
		}
		return dst, context.Canceled
	}
	return dst, nil
}

// ScoreBatch is ScoreFrame over slice-of-slice rows: the batch is packed
// into a contiguous frame first (one allocation), then sharded as usual.
// It exists for callers still holding [][]float64 — the server's stdlib
// fallback decode path among them; ragged rows score inline via
// Model.ScoreAll, which surfaces the canonical dimension panic per row.
func (p *Pool) ScoreBatch(ctx context.Context, m *core.Model, rows [][]float64) ([]float64, error) {
	f, err := frame.FromRows(rows)
	if err != nil {
		return m.ScoreAll(rows), nil
	}
	return p.ScoreFrame(ctx, m, f, nil)
}
