package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"time"

	"rpcrank/internal/core"
	"rpcrank/internal/frame"
	"rpcrank/internal/order"
	"rpcrank/internal/registry"
	"rpcrank/internal/server"
)

// This file produces the per-layer metrics of a traced run. Spans are
// recorded here, in the benchmark, around calls into each layer's public
// functions: client transport phases of the socket requests (httptrace),
// and in-process calls to server.Server.ServeHTTP, registry.Registry.Get
// and Put, server.Pool.ScoreFrame, core.Scorer.ScoreFrame and core.Fit on
// the same inputs the nodes served.

// fitInput is the fit a workload's traced run times in-process.
type fitInput struct {
	rows [][]float64
	seed int64
}

// traceRun turns a traced window into the per-layer metrics. recs are the
// window's records (every other one traced), start the window's start,
// window its length, and before/after the nodes' /metrics around it.
// lagMs are the install lags of the window's fits (group-churn only).
func (b *bench) traceRun(ctx context.Context, recs []record, start time.Time, window time.Duration,
	before, after []promSample, fit fitInput, lagMs []float64) error {
	c := b.account("traced window", recs)
	base := start.Sub(b.tr.base)

	// Transport: client spans with the httptrace phases as children.
	var write, ttfb, read, self, tracedLat, plainLat []float64
	var roots []int64
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		if !r.traced {
			plainLat = append(plainLat, ms(r.latency()))
			continue
		}
		tracedLat = append(tracedLat, ms(r.latency()))
		req := int64(i + 1)
		root := b.tr.addOffsets("client.request", 0, req, base+r.sent, base+r.done)
		b.tr.addOffsets("transport.write", root, req, base+r.gotConn, base+r.wrote)
		b.tr.addOffsets("transport.ttfb", root, req, base+r.wrote, base+r.firstByte)
		b.tr.addOffsets("transport.read", root, req, base+r.firstByte, base+r.done)
		roots = append(roots, root)
		write = append(write, ms(r.wrote-r.gotConn))
		ttfb = append(ttfb, ms(r.firstByte-r.wrote))
		read = append(read, ms(r.done-r.firstByte))
	}
	selfOf := b.tr.selfTimes()
	for _, id := range roots {
		self = append(self, ms(selfOf[id]))
	}
	n := fmt.Sprintf("(p50 of %d traced requests)", len(write))
	b.res.add("transport.write_ms", median(write), "ms", n)
	b.res.add("transport.ttfb_ms", median(ttfb), "ms", n)
	b.res.add("transport.read_ms", median(read), "ms", n)
	b.res.add("transport.client_self_ms", median(self), "ms", n+" client.request self time")

	// Admission, cluster and runtime counters from /metrics deltas.
	delta := func(name string) float64 {
		d := 0.0
		for i := range after {
			d += after[i].sum(name) - before[i].sum(name)
		}
		return d
	}
	b.res.add("admission.wait_p99_ms", admissionP99(before, after), "ms", "(bucket upper bound, rpcd_admission_wait_ms)")
	b.res.add("admission.shed", delta("rpcd_shed_total"), "count", "(rpcd_shed_total delta)")
	b.clusterLayers(recs, lagMs, delta("rpcd_forward_retries_total"), delta("rpcd_forward_shed_total"))
	kreq := float64(c.ok) / 1000
	b.res.add("runtime.gc_cycles_per_kreq", delta("rpcd_go_gc_cycles_total")/kreq, "1/kreq",
		fmt.Sprintf("(summed over nodes, %d requests)", c.ok))
	b.res.add("runtime.gc_pause_ms_per_s", 1000*delta("rpcd_go_gc_pause_seconds_total")/window.Seconds(), "ms/s", "(summed over nodes)")
	heap := 0.0
	for i := range after {
		heap += after[i].sum("rpcd_go_heap_inuse_bytes")
	}
	b.res.add("runtime.heap_inuse_mb", heap/(1<<20), "MB", "(summed over nodes, end of window)")

	// Generator.
	ids := make([]string, 0, len(recs))
	for i := range recs {
		ids = append(ids, recs[i].model)
	}
	b.res.add("loadgen.late_p99_ms", lateP99Ms(recs), "ms", fmt.Sprintf("(n=%d)", len(recs)))
	b.res.add("loadgen.sent", float64(c.sent), "count", "")
	b.res.add("loadgen.ok", float64(c.ok), "count", "")
	b.res.add("loadgen.failed", float64(c.failed), "count", "")
	b.res.add("loadgen.shed", float64(c.shed), "count", "")
	b.res.add("loadgen.reuse_far_share", reuseFarShare(ids, registry.DefaultMaxLoaded), "ratio",
		fmt.Sprintf("(outside the last %d distinct ids)", registry.DefaultMaxLoaded))
	b.res.add("trace.overhead_p50_ms", median(tracedLat)-median(plainLat), "ms",
		fmt.Sprintf("(p50 traced %d minus untraced %d requests)", len(tracedLat), len(plainLat)))

	if err := b.verify(ctx); err != nil {
		return err
	}
	// The node directory is replayed after its node has exited, so the
	// in-process registry sees exactly the files the node left behind.
	dir := b.g.nodes[0].dir
	b.stopAll()
	err := b.replay(dir, recs, fit)
	b.res.add("trace.spans", float64(b.tr.count()), "count", "")
	return err
}

// admissionP99 reads the p99 admission wait off the delta of the
// rpcd_admission_wait_ms histogram, as the upper bound of its bucket.
func admissionP99(before, after []promSample) float64 {
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	total := 0.0
	for i := range after {
		for k, v := range after[i] {
			const prefix = `rpcd_admission_wait_ms_bucket{le="`
			if len(k) <= len(prefix) || k[:len(prefix)] != prefix {
				continue
			}
			d := v - before[i][k]
			leText := k[len(prefix) : len(k)-2]
			if leText == "+Inf" {
				total += d
				continue
			}
			le, err := strconv.ParseFloat(leText, 64)
			if err != nil {
				continue
			}
			bs = append(bs, bucket{le, d})
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	// Merge the nodes' cumulative counts per bound.
	merged := map[float64]float64{}
	var les []float64
	for _, b := range bs {
		if _, ok := merged[b.le]; !ok {
			les = append(les, b.le)
		}
		merged[b.le] += b.cum
	}
	for _, le := range les {
		if merged[le] >= 0.99*total {
			return le
		}
	}
	return math.Inf(1)
}

// clusterLayers reports the serving group's per-layer metrics. On a single
// node they are all zero.
func (b *bench) clusterLayers(recs []record, lagMs []float64, retries, shed float64) {
	ok, fwd := 0, 0
	type bucketLat struct{ fwd, local []float64 }
	byRows := map[int]*bucketLat{}
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			continue
		}
		ok++
		bk := byRows[bits(r.rows)]
		if bk == nil {
			bk = &bucketLat{}
			byRows[bits(r.rows)] = bk
		}
		lat := ms(r.done - r.sent)
		if r.servedBy >= 0 {
			fwd++
			bk.fwd = append(bk.fwd, lat)
		} else {
			bk.local = append(bk.local, lat)
		}
	}
	var extra []float64
	for _, bk := range byRows {
		if len(bk.fwd) >= 5 && len(bk.local) >= 5 {
			extra = append(extra, median(bk.fwd)-median(bk.local))
		}
	}
	b.res.add("cluster.forwarded_share", float64(fwd)/float64(max(ok, 1)), "ratio",
		fmt.Sprintf("(%d forwarded of %d 2xx)", fwd, ok))
	b.res.add("cluster.forward_extra_ms", median(extra), "ms",
		fmt.Sprintf("(median over %d row-count buckets of p50 forwarded minus p50 local, send to answer)", len(extra)))
	b.res.add("cluster.forward_retries", retries, "count", "(rpcd_forward_retries_total delta)")
	b.res.add("cluster.forward_shed", shed, "count", "(rpcd_forward_shed_total delta)")
	b.res.add("cluster.install_lag_p50_ms", median(lagMs), "ms", fmt.Sprintf("(n=%d fits)", len(lagMs)))
	b.res.add("cluster.install_lag_max_ms", maxOf(lagMs), "ms", fmt.Sprintf("(n=%d fits)", len(lagMs)))
}

// bits is the bit length of n: row counts 2^(k-1)..2^k-1 share bucket k.
func bits(n int) int {
	k := 0
	for ; n > 0; n >>= 1 {
		k++
	}
	return k
}

// replayItem is one request node 0 served, replayed in-process.
type replayItem struct {
	req   int64 // span request id (record index + 1)
	model string
	path  string
	body  []byte
	rows  [][]float64
	e2e   time.Duration // socket latency, send to answer
}

// replay times the in-process layers on the requests node 0 served, on
// node 0's own registry directory with the node's LRU bound.
func (b *bench) replay(dir string, recs []record, fit fitInput) error {
	var items []replayItem
	var seq []string
	for i := range recs {
		r := &recs[i]
		if !r.ok() || r.sb == nil || !(r.servedBy == 0 || (r.servedBy < 0 && r.conn == 0)) {
			continue
		}
		seq = append(seq, r.model)
		items = append(items, replayItem{req: int64(i + 1), model: r.model, path: requestPath(r.model, r.op),
			body: r.sb.body, rows: r.sb.rows, e2e: r.done - r.sent})
	}
	if len(items) == 0 {
		return fmt.Errorf("no request was served by node 0")
	}
	// replayMin calls, enough for a p99: an even sample of the served
	// requests, cycling through them when there are fewer.
	picked := make([]replayItem, replayMin)
	for k := range picked {
		picked[k] = items[k*len(items)/replayMin%len(items)]
		if len(items) < replayMin {
			picked[k] = items[k%len(items)]
		}
	}
	items = picked
	for k := 0; len(seq) < replayMin; k++ {
		seq = append(seq, seq[k])
	}

	reg, err := registry.Open(dir, registry.DefaultMaxLoaded)
	if err != nil {
		return err
	}
	defer reg.Close()

	// registry.Get over the node's id sequence, from a cold cache.
	var getUs []float64
	for _, id := range seq {
		t0 := time.Now()
		_, _, err := reg.Get(id)
		t1 := time.Now()
		if err != nil {
			return err
		}
		b.tr.add("registry.get", 0, 0, t0, t1)
		getUs = append(getUs, float64(t1.Sub(t0))/1e3)
	}
	s := sortedCopy(getUs)
	p50, _ := quantile(s, 0.5)
	p99, _ := quantile(s, 0.99)
	note := fmt.Sprintf("(n=%d, node 0 id sequence, LRU %d)", len(s), registry.DefaultMaxLoaded)
	b.res.add("registry.get_p50_us", p50, "us", note)
	b.res.add("registry.get_p99_us", p99, "us", note)

	srv := server.New(reg, server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	pool := server.NewPool(0)
	defer pool.Close()

	// server.ServeHTTP on identical request bytes, one warm-up pass first.
	w := &discardWriter{h: http.Header{}}
	serve := func(it *replayItem) error {
		req := httptest.NewRequest(http.MethodPost, it.path, bytes.NewReader(it.body))
		req.Header.Set("Content-Type", "application/json")
		w.reset()
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return fmt.Errorf("in-process %s: status %d", it.path, w.status)
		}
		return nil
	}
	for i := range items[:min(len(items), 64)] {
		if err := serve(&items[i]); err != nil {
			return err
		}
	}
	handler := make([]float64, len(items))
	for i := range items {
		t0 := time.Now()
		if err := serve(&items[i]); err != nil {
			return err
		}
		t1 := time.Now()
		b.tr.add("server.handler", 0, items[i].req, t0, t1)
		handler[i] = ms(t1.Sub(t0))
	}
	// Allocations around ServeHTTP, at the process's GOMAXPROCS, in a pass
	// of its own (ReadMemStats would distort the timed calls). Request
	// construction happens before the counted loop.
	reqs := make([]*http.Request, len(items))
	for i := range items {
		reqs[i] = httptest.NewRequest(http.MethodPost, items[i].path, bytes.NewReader(items[i].body))
		reqs[i].Header.Set("Content-Type", "application/json")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		w.reset()
		srv.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))

	// The components of the handler, on the same requests: registry.Get
	// (now warm), Pool.ScoreFrame, and Scorer.ScoreFrame on one goroutine.
	var selfMs, poolMs, coreMs []float64
	var poolSum, coreSum time.Duration
	rows := 0
	var dst []float64
	for i := range items {
		it := &items[i]
		f, err := frame.FromRows(it.rows)
		if err != nil {
			return err
		}
		t0 := time.Now()
		m, _, err := reg.Get(it.model)
		t1 := time.Now()
		if err != nil {
			return err
		}
		dst, err = pool.ScoreFrame(context.Background(), m, f, dst[:0])
		t2 := time.Now()
		if err != nil {
			return err
		}
		sc := m.AcquireScorer()
		dst = sc.ScoreFrame(dst, f)
		t3 := time.Now()
		m.ReleaseScorer(sc)
		b.tr.add("registry.get", 0, it.req, t0, t1)
		b.tr.add("pool.score", 0, it.req, t1, t2)
		b.tr.add("core.score", 0, it.req, t2, t3)
		selfMs = append(selfMs, handler[i]-ms(t1.Sub(t0))-ms(t2.Sub(t1)))
		poolMs = append(poolMs, ms(t2.Sub(t1)))
		coreMs = append(coreMs, ms(t3.Sub(t2)))
		poolSum += t2.Sub(t1)
		coreSum += t3.Sub(t2)
		rows += len(it.rows)
	}
	hs := sortedCopy(handler)
	hp50, _ := quantile(hs, 0.5)
	hp99, _ := quantile(hs, 0.99)
	note = fmt.Sprintf("(n=%d in-process calls)", len(hs))
	b.res.add("server.handler_p50_ms", hp50, "ms", note)
	b.res.add("server.handler_p99_ms", hp99, "ms", note)
	b.res.add("server.self_ms", median(selfMs), "ms", "(p50 of handler minus registry.get minus pool.score)")
	b.res.add("server.allocs_per_req", allocs, "count", fmt.Sprintf("(GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)))
	var overhead []float64
	for i := range items {
		overhead = append(overhead, ms(items[i].e2e)-handler[i])
	}
	b.res.add("transport.overhead_ms", median(overhead), "ms", "(p50 of socket latency minus in-process handler, same bytes)")
	b.res.add("pool.score_ms", median(poolMs), "ms", note)
	b.res.add("pool.speedup", float64(coreSum)/float64(poolSum), "ratio",
		fmt.Sprintf("(one-goroutine core time / pool time, %d workers)", pool.Workers()))
	b.res.add("pool.workers", float64(pool.Workers()), "count", "")
	b.res.add("core.score_ns_per_row", float64(coreSum)/float64(rows), "ns", fmt.Sprintf("(%d rows)", rows))

	// core.Fit with the server's options, and a durable Put of its model.
	alpha, err := order.NewDirection(alphaFor(len(fit.rows[0]))...)
	if err != nil {
		return err
	}
	var fitMs, putMs []float64
	var fitted *core.Model
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		fitted, err = core.Fit(fit.rows, core.Options{Alpha: alpha, Restarts: 3, Seed: fit.seed, Workers: pool.Workers()})
		t1 := time.Now()
		if err != nil {
			return err
		}
		b.tr.add("core.fit", 0, 0, t0, t1)
		fitMs = append(fitMs, ms(t1.Sub(t0)))
	}
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		_, err := reg.Put("perfbench-put", fitted, len(fit.rows), fitted.ExplainedVariance())
		t1 := time.Now()
		if err != nil {
			return err
		}
		b.tr.add("registry.put", 0, 0, t0, t1)
		putMs = append(putMs, ms(t1.Sub(t0)))
	}
	b.res.add("core.fit_ms", median(fitMs), "ms", fmt.Sprintf("(median of 3, n=%d d=%d)", len(fit.rows), len(fit.rows[0])))
	b.res.add("registry.put_ms", median(putMs), "ms", "(median of 5 durable Puts)")
	return nil
}

// discardWriter is a reusable ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }

func (d *discardWriter) reset() {
	clear(d.h)
	d.status = http.StatusOK
}
