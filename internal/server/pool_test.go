package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/faultinject"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
)

func poolTestModel(t *testing.T) *core.Model {
	t.Helper()
	rows := make([][]float64, 32)
	for i := range rows {
		u := float64(i) / 31
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	m, err := core.Fit(rows, core.Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScoreBatchAfterCloseReturnsErrPoolClosed(t *testing.T) {
	m := poolTestModel(t)
	rows := make([][]float64, 2*concurrencyThreshold)
	for i := range rows {
		u := float64(i) / float64(len(rows)-1)
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	pool := NewPool(2)
	if out, err := pool.ScoreFrame(context.Background(), m, frame.MustFromRows(rows), nil); err != nil || len(out) != len(rows) {
		t.Fatalf("pre-close batch: err=%v len=%d", err, len(out))
	}
	pool.Close()
	// A batch after Close (e.g. a request landing during shutdown drain)
	// must neither panic on the closed channel nor silently score on the
	// dying node: it fails fast so the server answers 503 + Retry-After.
	out, err := pool.ScoreFrame(context.Background(), m, frame.MustFromRows(rows), nil)
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close batch: err=%v, want ErrPoolClosed", err)
	}
	if len(out) != 0 {
		t.Fatalf("post-close batch returned %d scores; want none", len(out))
	}
	pool.Close() // idempotent
}

func TestWorkerPanicSurfacesOnCallerNotWorker(t *testing.T) {
	m := poolTestModel(t)
	rows := make([][]float64, 2*concurrencyThreshold)
	for i := range rows {
		rows[i] = []float64{1, 1} // wrong dimension: Model.Score panics
	}
	pool := NewPool(2)
	defer pool.Close()
	defer func() {
		if recover() == nil {
			t.Errorf("panic not re-raised on the calling goroutine")
		}
		// The pool must still work after containing a poison batch.
		good := make([][]float64, 2*concurrencyThreshold)
		for i := range good {
			good[i] = []float64{1, 2, 3}
		}
		if out, err := pool.ScoreFrame(context.Background(), m, frame.MustFromRows(good), nil); err != nil || len(out) != len(good) {
			t.Errorf("pool broken after contained panic (err=%v)", err)
		}
	}()
	pool.ScoreFrame(context.Background(), m, frame.MustFromRows(rows), nil)
}

func TestPoolConcurrentBatchesDuringClose(t *testing.T) {
	m := poolTestModel(t)
	rows := make([][]float64, 4*concurrencyThreshold)
	for i := range rows {
		u := float64(i) / float64(len(rows)-1)
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	pool := NewPool(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Racing Close, a batch either completes in full or fails fast
			// with ErrPoolClosed; nothing in between, and no panic.
			out, err := pool.ScoreFrame(context.Background(), m, frame.MustFromRows(rows), nil)
			if err == nil && len(out) != len(rows) {
				t.Errorf("short result: %d", len(out))
			}
			if err != nil && !errors.Is(err, ErrPoolClosed) {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	pool.Close() // races the batches; must not panic any submitter
	wg.Wait()
}

func TestScoreFrameAlreadyCancelledScoresNothing(t *testing.T) {
	m := poolTestModel(t)
	f, err := frame.FromRows(trainingRows(4 * concurrencyThreshold))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := pool.ScoreFrame(ctx, m, f, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("cancelled batch returned %d scores", len(out))
	}
}

// TestScoreFrameCancelMidBatchLeavesScorersClean cancels a batch between
// row blocks (injected latency holds it open long enough) and then checks
// the cancellation parity contract: the model's scorer pool must come back
// consistent, producing bit-identical scores to the serial path.
func TestScoreFrameCancelMidBatchLeavesScorersClean(t *testing.T) {
	m := poolTestModel(t)
	rows := trainingRows(4096)
	f, err := frame.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	fj := faultinject.New(1)
	fj.Set(faultinject.PointScoreBlock, faultinject.Spec{Latency: 10 * time.Millisecond, LatencyProb: 1})
	pool := NewPool(2)
	pool.faults = fj
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	out, err := pool.ScoreFrame(ctx, m, f, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_ = out

	// Disarm the faults and rescore: the recycled scorers must match the
	// serial reference exactly.
	fj.Set(faultinject.PointScoreBlock, faultinject.Spec{})
	got, err := pool.ScoreFrame(context.Background(), m, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := m.ScoreAll(rows)
	if len(got) != len(want) {
		t.Fatalf("rescore returned %d scores, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: pooled rescore %v != serial %v", i, got[i], want[i])
		}
	}
}

// TestScoreBatchAllocsIndependentOfGOMAXPROCS pins the 10k-row /score
// path to one allocation count whatever the worker count: a per-shard
// allocation (such as a recover value escaping in runTask) would add one
// per worker. The count is the minimum over several rounds, since a GC
// that empties the model's scorer pool costs a sporadic recompile, while
// a per-shard leak shows in every round.
func TestScoreBatchAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	body, err := json.Marshal(ScoreRequest{Rows: benchRows(10_000)})
	if err != nil {
		t.Fatal(err)
	}
	allocsAt := func(procs int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s := benchServer(t) // sizes its pool from GOMAXPROCS
		defer s.Close()
		replay := replayer(s, "score", body)
		serve := func() {
			if status := replay(); status != http.StatusOK {
				t.Fatalf("GOMAXPROCS=%d: status %d", procs, status)
			}
		}
		serve() // warm every pool
		least := math.Inf(1)
		for round := 0; round < 3; round++ {
			least = min(least, testing.AllocsPerRun(10, serve))
		}
		return least
	}
	one, four := allocsAt(1), allocsAt(4)
	if one != four {
		t.Fatalf("10k-row score: %v allocs/op at GOMAXPROCS=1, %v at GOMAXPROCS=4; want equal", one, four)
	}
}
