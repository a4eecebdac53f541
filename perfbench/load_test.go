package main

import (
	"context"
	"testing"
	"time"
)

// A stall on one request must show in the latency of the requests due
// behind it, because latency is taken from the due time, not the send.
func TestOpenLoopLatencyFromDueUnderStall(t *testing.T) {
	const n = 60
	gap := 2 * time.Millisecond
	stall := 40 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	recs := make([]record, n)
	start := time.Now()
	runOpenLoop(context.Background(), 1, start, due, func(_, i int) {
		r := &recs[i]
		r.due = due[i]
		r.sent = time.Since(start)
		if i == 5 {
			time.Sleep(stall)
		}
		r.done = time.Since(start)
		r.status = 200
	})
	// Request 6 was due 2ms after request 5 started its 40ms stall.
	if l := recs[6].latency(); l < stall-gap-time.Millisecond {
		t.Errorf("request 6 latency %v: the wait behind the stall is missing", l)
	}
	if s := recs[6].done - recs[6].sent; s > 10*time.Millisecond {
		t.Errorf("request 6 service time %v, want small (it did not stall itself)", s)
	}
	if late := recs[6].sent - recs[6].due; late < stall-gap-time.Millisecond {
		t.Errorf("generator lateness of request 6 is %v, want about %v", late, stall-gap)
	}
	// The stall's backlog drains: late requests are sent back to back
	// until the schedule is caught up.
	if l := recs[n-1].latency(); l > 5*time.Millisecond {
		t.Errorf("last request latency %v: backlog did not drain", l)
	}
	for i := 1; i < 5; i++ {
		if l := recs[i].latency(); l > 10*time.Millisecond {
			t.Errorf("request %d before the stall has latency %v", i, l)
		}
	}
}

func TestDueLatenciesOrderAndFailures(t *testing.T) {
	recs := []record{
		{due: 3 * time.Millisecond, done: 4 * time.Millisecond, status: 200},
		{due: 1 * time.Millisecond, done: 5 * time.Millisecond, status: 503},
		{due: 2 * time.Millisecond, done: 4 * time.Millisecond, status: 200},
	}
	lat := dueLatencies(recs)
	if lat[1] != 2 || lat[2] != 1 {
		t.Errorf("latencies %v, want due order [+Inf 2 1]", lat)
	}
	if lat[0] <= 1e300 {
		t.Errorf("a shed request has latency %v, want +Inf", lat[0])
	}
	c := countPhase(recs)
	if c.sent != 3 || c.ok != 2 || c.shed != 1 || c.failed != 0 {
		t.Errorf("counts %+v", c)
	}
}

func TestLadderStepMissesOnSlowMedianOrBacklog(t *testing.T) {
	step := 100 * time.Millisecond
	mk := func(lat, late time.Duration) []record {
		recs := make([]record, 100)
		for i := range recs {
			d := time.Duration(i) * time.Millisecond
			recs[i] = record{due: d, sent: d, done: d + lat, status: 200}
			if d >= step*3/4 {
				recs[i].sent = d + late
				recs[i].done = recs[i].sent + lat
			}
		}
		return recs
	}
	if ok, why := ladderStep(mk(300*time.Microsecond, 0), step); !ok {
		t.Errorf("fast step missed: %s", why)
	}
	if ok, _ := ladderStep(mk(2*time.Millisecond, 0), step); ok {
		t.Error("a 2ms median met the 1ms limit")
	}
	if ok, _ := ladderStep(mk(300*time.Microsecond, 5*time.Millisecond), step); ok {
		t.Error("a growing backlog (late sends in the last quarter) met the limit")
	}
}
