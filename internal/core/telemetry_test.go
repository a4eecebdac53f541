package core

import (
	"math"
	"sync"
	"testing"

	"rpcrank/internal/order"
)

func telemetryRows(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		u := float64(i) / float64(n-1)
		rows[i] = []float64{
			10 * u,
			5*u*u + 1,
			3 - 2*u,
		}
	}
	return rows
}

func TestFitDiagnosticsCollected(t *testing.T) {
	m, err := Fit(telemetryRows(64), Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := m.FitDiag
	if d == nil {
		t.Fatal("FitDiag is nil after Fit")
	}
	if d.Restarts != 1 || d.Restart != 0 {
		t.Errorf("restart bookkeeping = %d/%d, want 0/1", d.Restart, d.Restarts)
	}
	if d.Iterations != m.Iterations {
		t.Errorf("diag iterations %d != model iterations %d", d.Iterations, m.Iterations)
	}
	if d.Converged != m.Converged {
		t.Errorf("diag converged %v != model converged %v", d.Converged, m.Converged)
	}
	if len(d.Trace) != m.Iterations {
		t.Errorf("trace has %d entries, want one per iteration (%d)", len(d.Trace), m.Iterations)
	}
	if d.TraceTruncated {
		t.Error("trace reported truncated on a short fit")
	}
	// The first iteration always improves on +Inf; its J is the initial
	// objective, and the final objective must not be worse than the best
	// trace entry (the fit returns the best iterate).
	if !d.Trace[0].Accepted {
		t.Error("first iteration not accepted")
	}
	if d.Trace[0].Iter != 0 || d.Trace[0].Objective != d.InitialObjective {
		t.Errorf("trace[0] = %+v, initial objective %v", d.Trace[0], d.InitialObjective)
	}
	if d.FinalObjective > d.InitialObjective {
		t.Errorf("final objective %v exceeds initial %v", d.FinalObjective, d.InitialObjective)
	}
	if want := sum(m.ResidualsSq); math.Abs(d.FinalObjective-want) > 1e-12 {
		t.Errorf("final objective %v != sum of residuals %v", d.FinalObjective, want)
	}
	// Warm accounting: iteration 0 is cold; every later iteration projects
	// every row through the warm path.
	if d.Trace[0].WarmRows != 0 {
		t.Errorf("iteration 0 reports %d warm rows, want 0", d.Trace[0].WarmRows)
	}
	for _, it := range d.Trace[1:] {
		if it.WarmRows != 64 {
			t.Errorf("iteration %d warm rows = %d, want 64", it.Iter, it.WarmRows)
		}
		if it.WarmHits < 0 || it.WarmHits > it.WarmRows {
			t.Errorf("iteration %d warm hits = %d out of %d", it.Iter, it.WarmHits, it.WarmRows)
		}
	}
	if d.WarmStartHitRate < 0 || d.WarmStartHitRate > 1 {
		t.Errorf("warm-start hit rate %v out of [0,1]", d.WarmStartHitRate)
	}
}

func TestFitDiagnosticsNoWarmStart(t *testing.T) {
	m, err := Fit(telemetryRows(48), Options{
		Alpha:       order.MustDirection(1, 1, -1),
		Seed:        5,
		NoWarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := m.FitDiag
	if d == nil {
		t.Fatal("FitDiag is nil")
	}
	for _, it := range d.Trace {
		if it.WarmRows != 0 || it.WarmHits != 0 {
			t.Errorf("cold run iteration %d reports warm rows/hits %d/%d", it.Iter, it.WarmRows, it.WarmHits)
		}
	}
	if d.WarmStartHitRate != 0 {
		t.Errorf("cold run hit rate = %v, want 0", d.WarmStartHitRate)
	}
}

func TestFitObserverStreamsIterations(t *testing.T) {
	var mu sync.Mutex
	var got []FitIteration
	obs := FitObserverFunc(func(it FitIteration) {
		mu.Lock()
		got = append(got, it)
		mu.Unlock()
	})
	m, err := Fit(telemetryRows(48), Options{
		Alpha:    order.MustDirection(1, 1, -1),
		Seed:     3,
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m.FitDiag.Trace) {
		t.Fatalf("observer saw %d iterations, trace has %d", len(got), len(m.FitDiag.Trace))
	}
	for i, it := range got {
		if it != m.FitDiag.Trace[i] {
			t.Errorf("observer iteration %d = %+v, trace has %+v", i, it, m.FitDiag.Trace[i])
		}
	}
}

func TestFitDiagnosticsRestarts(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	obs := FitObserverFunc(func(it FitIteration) {
		mu.Lock()
		seen[it.Restart] = true
		mu.Unlock()
	})
	m, err := Fit(telemetryRows(64), Options{
		Alpha:    order.MustDirection(1, 1, -1),
		Seed:     3,
		Restarts: 3,
		Workers:  -1, // exercise the concurrent-restart observer path
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := m.FitDiag
	if d == nil {
		t.Fatal("FitDiag is nil")
	}
	if d.Restarts != 3 {
		t.Errorf("diag restarts = %d, want 3", d.Restarts)
	}
	if d.Restart < 0 || d.Restart >= 3 {
		t.Errorf("winning restart index %d out of range", d.Restart)
	}
	for _, it := range d.Trace {
		if it.Restart != d.Restart {
			t.Errorf("trace entry carries restart %d, diag says %d", it.Restart, d.Restart)
		}
	}
	if len(seen) != 3 {
		t.Errorf("observer saw restarts %v, want all of 0..2", seen)
	}
}

func TestFitTraceTruncation(t *testing.T) {
	// A fit cannot realistically run maxFitTrace iterations, so exercise
	// the cap directly the way fitPrepared does.
	d := &FitDiagnostics{Trace: make([]FitIteration, 0, maxFitTrace)}
	for i := 0; i < maxFitTrace+10; i++ {
		if len(d.Trace) < maxFitTrace {
			d.Trace = append(d.Trace, FitIteration{Iter: i})
		} else {
			d.TraceTruncated = true
		}
	}
	if len(d.Trace) != maxFitTrace || !d.TraceTruncated {
		t.Errorf("trace len %d truncated=%v, want %d/true", len(d.Trace), d.TraceTruncated, maxFitTrace)
	}
}
