package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"math"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// record is the outcome of one request, with times as offsets from the
// phase's start. due is when an open-loop request was scheduled (equal to
// sent in a closed loop); latency is always taken from due, so a request
// that waited behind a stall — for a connection or for the generator —
// carries that wait.
type record struct {
	due, sent, done time.Duration
	status          int // 0: transport error
	rows            int
	model           string
	op              byte       // 's' score, 'r' rank, 'f' fit
	sb              *scoreBody // the request body and its rows
	conn            int        // entry node index
	servedBy        int        // node index from X-RPC-Served-By, -1 when absent
	resp            []byte
	traced          bool
	// Client-side transport phases of a traced request (httptrace):
	// connection acquired, request written, first response byte, body read.
	gotConn, wrote, firstByte time.Duration
}

func (r *record) ok() bool { return r.status >= 200 && r.status < 300 }

// shed reports an answer of admission control or drain (429/503).
func (r *record) shed() bool {
	return r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable
}

func (r *record) latency() time.Duration { return r.done - r.due }

// sender owns one keep-alive connection to one node. It is used by a
// single goroutine at a time.
type sender struct {
	client *http.Client
	base   string // node URL
	node   int
	buf    bytes.Buffer
}

func newSender(base string, node int) *sender {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		TLSNextProto:        map[string]func(string, *tls.Conn) http.RoundTripper{},
	}
	return &sender{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, node: node}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// post sends body to base+path and fills rec (sent, done, status,
// servedBy, and the response when keep). start is the phase's time base.
// With trace set, it also records the client transport phases.
func (s *sender) post(ctx context.Context, start time.Time, path string, body []byte, keep, trace bool, nodeOf func(string) int, rec *record) {
	rec.conn = s.node
	rec.servedBy = -1
	var pc *phaseClock
	if trace {
		// The transport runs these callbacks on its own goroutines.
		pc = &phaseClock{start: start}
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn:              func(httptrace.GotConnInfo) { pc.mark(0) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { pc.mark(1) },
			GotFirstResponseByte: func() { pc.mark(2) },
		})
		defer pc.copyTo(rec)
	}
	rec.sent = time.Since(start)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		rec.done = time.Since(start)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		rec.done = time.Since(start)
		return
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rec.done = time.Since(start)
	if err != nil {
		return
	}
	rec.status = resp.StatusCode
	if by := resp.Header.Get("X-RPC-Served-By"); by != "" && nodeOf != nil {
		rec.servedBy = nodeOf(by)
	}
	if keep || !rec.ok() {
		rec.resp = append([]byte(nil), s.buf.Bytes()...)
	}
}

// phaseClock collects the httptrace phase times of one request.
type phaseClock struct {
	start time.Time
	mu    sync.Mutex
	t     [3]time.Duration // connection acquired, request written, first response byte
}

func (c *phaseClock) mark(k int) {
	c.mu.Lock()
	c.t[k] = time.Since(c.start)
	c.mu.Unlock()
}

// copyTo stores the phase times in rec, which counts as traced only when
// every phase was seen.
func (c *phaseClock) copyTo(rec *record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec.gotConn, rec.wrote, rec.firstByte = c.t[0], c.t[1], c.t[2]
	rec.traced = c.t[0] > 0 && c.t[1] > 0 && c.t[2] > 0
}

// runOpenLoop issues len(due) requests on schedule: due[i] is request i's
// offset from start. Each worker (one per connection) takes the next
// request in due order, waits until it is due and runs exec; when every
// worker is busy, due requests queue and are sent late, and their latency
// (taken from due) carries the wait. exec must fill recs[i].
func runOpenLoop(ctx context.Context, workers int, start time.Time, due []time.Duration, exec func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					sleepPrecise(wait)
				}
				exec(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// sleepPrecise blocks the calling goroutine for d in a nanosleep system
// call. time.Sleep is not used for the schedule: the Go runtime parks
// idle timers in epoll with millisecond resolution, so a sub-millisecond
// sleep overshoots by up to a millisecond, which would read as server
// latency. An idle worker never has a request in flight, so blocking its
// thread holds up nothing else.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// runClosedLoop runs workers that each issue their next request as soon as
// the previous one completes, until stop passes. exec(w, k) issues worker
// w's k-th request.
func runClosedLoop(ctx context.Context, workers int, start time.Time, stop time.Duration, exec func(w, k int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; time.Since(start) < stop && ctx.Err() == nil; k++ {
				exec(w, k)
			}
		}(w)
	}
	wg.Wait()
}

// phaseCounts are the generator's per-phase accounting.
type phaseCounts struct {
	sent, ok, shed, failed int
}

func countPhase(recs []record) phaseCounts {
	var c phaseCounts
	for i := range recs {
		r := &recs[i]
		c.sent++
		switch {
		case r.ok():
			c.ok++
		case r.shed():
			c.shed++
		default:
			c.failed++
		}
	}
	return c
}

// latenciesMs returns the due-time latencies of the successful records
// and the count of the others.
func latenciesMs(recs []record) (lat []float64, failed int) {
	lat = make([]float64, 0, len(recs))
	for i := range recs {
		if recs[i].ok() {
			lat = append(lat, ms(recs[i].latency()))
		} else {
			failed++
		}
	}
	return lat, failed
}

// dueLatencies returns every record's due-time latency in ms, in due
// order, with failed requests as +Inf.
func dueLatencies(recs []record) []float64 {
	idx := make([]int, len(recs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return recs[idx[a]].due < recs[idx[b]].due })
	lat := make([]float64, len(recs))
	for k, i := range idx {
		lat[k] = math.Inf(1)
		if recs[i].ok() {
			lat[k] = ms(recs[i].latency())
		}
	}
	return lat
}

// lateP99Ms is the generator's lateness p99: how long after its due time
// each request was actually handed to the transport.
func lateP99Ms(recs []record) float64 {
	late := make([]float64, len(recs))
	for i := range recs {
		late[i] = ms(recs[i].sent - recs[i].due)
	}
	v, _ := quantile(sortedCopy(late), 0.99)
	return v
}
