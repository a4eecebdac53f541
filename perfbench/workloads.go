package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Workload sizes, frozen from calibration runs on a 2-vCPU box (see
// README.md). Changing any of them redefines the benchmark.
const (
	// setupReps is how many times a trace-0 run sets its nodes up; setup_s
	// is the median.
	setupReps = 3
	// sampleEvery keeps every sampleEvery-th response for verification.
	sampleEvery = 8
	// replayMin is the least number of in-process calls behind a per-layer
	// p99 (ten samples beyond it).
	replayMin = 1010

	smallModels  = 16
	smallDim     = 4
	smallFitRows = 200
	smallBodies  = 512
	smallRate    = 2000.0 // requests/s of the fixed-rate phase
	// smallFixedShare is the share of the window given to the fixed-rate
	// phase; the rate ladder follows it.
	smallFixedShare = 0.4
	// smallSatShare is the share of the window given to the closed-loop
	// phase behind max_rate_rps.
	smallSatShare = 0.2
	// The open-loop rate ladder: up to smallLadderSteps steps of
	// smallStepDur each, from smallLadderStart requests/s up by
	// smallLadderRatio per step, until smallLadderMisses consecutive steps
	// miss smallLimitMs.
	smallLimitMs      = 1.0
	smallLadderStart  = 6000.0
	smallLadderRatio  = 1.05
	smallLadderSteps  = 40
	smallLadderMisses = 2
	smallStepDur      = 300 * time.Millisecond

	bulkDim     = 3
	bulkFitRows = 2000
	bulkRows    = 10_000
	bulkBodies  = 4

	churnNodes     = 3
	churnModels    = 512
	churnBaseRows  = 300
	churnBodies    = 512
	churnMaxRows   = 256
	churnRate      = 200.0 // score requests/s
	churnZipfS     = 1.1
	churnFitRows   = 2000
	churnFitDim    = 4
	churnFitPeriod = 2 * time.Second
)

// bench is the state of one benchmark run.
type bench struct {
	cfg   config
	tr    *tracer
	g     *group    // the nodes of the timed phase
	conns []*sender // score connections into g
	res   result

	scoreChecks []scoreCheck
	fitChecks   []fitCheck
}

// rng returns an independent generator for one purpose, derived from the
// run's seed.
func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.cfg.seed*1_000_003 + stream))
}

func (b *bench) stopAll() {
	b.closeConns()
	if b.g != nil {
		if err := b.g.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		b.g = nil
	}
}

func (b *bench) closeConns() {
	for _, c := range b.conns {
		c.close()
	}
	b.conns = nil
}

// setupTimes runs setup as many times as the mode asks (setupReps for the
// end-to-end run, once when tracing), each time on freshly started nodes,
// and keeps the last nodes running for the timed phase. A setup's time
// runs from launching the nodes until the timed phase could start: node
// start, installs and fits, group readiness and warm-up. The rpcd build
// is not part of it.
func (b *bench) setupTimes(ctx context.Context, nodes int, setup func(context.Context, *group) error) ([]float64, error) {
	reps := setupReps
	if b.cfg.trace {
		reps = 1
	}
	var times []float64
	for k := 0; k < reps; k++ {
		b.stopAll()
		dir := filepath.Join(b.cfg.work, fmt.Sprintf("setup%d", k))
		t0 := time.Now()
		g, err := startGroup(ctx, b.cfg.rpcd, dir, nodes)
		if err != nil {
			return nil, err
		}
		b.g = g
		b.fitChecks = b.fitChecks[:0]
		if err := setup(ctx, g); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// fitReq is the body of POST /v1/models when fitting from rows.
type fitReq struct {
	Name  string      `json:"name"`
	Alpha []float64   `json:"alpha"`
	Rows  [][]float64 `json:"rows"`
	Seed  int64       `json:"seed"`
}

// fitResp is the part of a fit answer the benchmark reads.
type fitResp struct {
	Model struct {
		ID  string `json:"id"`
		Dim int    `json:"dim"`
	} `json:"model"`
	Scores    []float64 `json:"scores"`
	Positions []int     `json:"positions"`
}

// fit posts a fit to node, keeps the answer for verification, and returns
// the fitted model's id and the request latency in ms.
func (b *bench) fit(ctx context.Context, s *sender, name string, rows [][]float64, seed int64) (string, float64, error) {
	body, err := json.Marshal(fitReq{Name: name, Alpha: alphaFor(len(rows[0])), Rows: rows, Seed: seed})
	if err != nil {
		return "", 0, err
	}
	var rec record
	start := time.Now()
	s.post(ctx, start, "/v1/models", body, true, false, nil, &rec)
	if rec.status != 201 {
		return "", 0, fmt.Errorf("fit %s: status %d: %s", name, rec.status, rec.resp)
	}
	var fr fitResp
	if err := json.Unmarshal(rec.resp, &fr); err != nil {
		return "", 0, fmt.Errorf("fit %s: %w", name, err)
	}
	b.fitChecks = append(b.fitChecks, fitCheck{name: fr.Model.ID, rows: rows, seed: seed, resp: rec.resp})
	return fr.Model.ID, ms(rec.done - rec.sent), nil
}

// openPhase runs one open-loop phase on b.conns. prep fills request i's
// record (model, op, rows, body) and returns the body to send. With trace,
// every other request carries client tracing.
func (b *bench) openPhase(ctx context.Context, due []time.Duration, trace bool, prep func(i int, r *record) *scoreBody) ([]record, time.Time) {
	recs := make([]record, len(due))
	start := time.Now()
	runOpenLoop(ctx, len(b.conns), start, due, func(w, i int) {
		r := &recs[i]
		r.due = due[i]
		sb := prep(i, r)
		b.conns[w].post(ctx, start, requestPath(r.model, r.op), sb.body, i%sampleEvery == 0, trace && i%2 == 0, b.g.nodeIndex, r)
	})
	return recs, start
}

// closedPhase runs a closed loop on b.conns for dur: each connection sends
// its next request as soon as it has read the previous answer, so the
// generator never builds a backlog. Records come back in send order, with
// due equal to sent, plus the loop's start and the time its last answer
// arrived.
func (b *bench) closedPhase(ctx context.Context, dur time.Duration, trace bool, prep func(i int, r *record) *scoreBody) ([]record, time.Time, time.Duration) {
	workers := len(b.conns)
	perWorker := make([][]record, workers)
	start := time.Now()
	runClosedLoop(ctx, workers, start, dur, func(w, k int) {
		var r record
		sb := prep(k*workers+w, &r)
		b.conns[w].post(ctx, start, requestPath(r.model, r.op), sb.body, k%sampleEvery == 0, trace && k%2 == 0, b.g.nodeIndex, &r)
		r.due = r.sent
		perWorker[w] = append(perWorker[w], r)
	})
	var recs []record
	var end time.Duration
	for _, rs := range perWorker {
		recs = append(recs, rs...)
		for i := range rs {
			end = max(end, rs[i].done)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].sent < recs[j].sent })
	return recs, start, end
}

func requestPath(model string, op byte) string {
	if op == 'r' {
		return "/v1/models/" + model + "/rank"
	}
	return "/v1/models/" + model + "/score"
}

// warm sends n requests back to back over b.conns (not measured).
func (b *bench) warm(ctx context.Context, n int, prep func(i int, r *record) *scoreBody) error {
	var next atomic.Int64
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range b.conns {
		wg.Add(1)
		go func(c *sender) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				var r record
				sb := prep(i, &r)
				c.post(ctx, time.Now(), requestPath(r.model, r.op), sb.body, false, false, nil, &r)
				if !r.ok() {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm-up %s: status %d: %s", r.model, r.status, r.resp)
					}
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return firstErr
}

// account adds a phase's records to the run totals and the verification
// sample, and logs the phase's generator accounting.
func (b *bench) account(phase string, recs []record) phaseCounts {
	c := countPhase(recs)
	b.res.attempted += c.sent
	b.res.failed += c.sent - c.ok
	for i := range recs {
		r := &recs[i]
		if r.ok() && r.resp != nil && r.sb != nil {
			b.scoreChecks = append(b.scoreChecks, scoreCheck{model: r.model, op: r.op, rows: r.sb.rows, resp: r.resp})
		}
	}
	b.res.logf("phase %-16s sent=%d ok=%d shed=%d failed=%d late_p99_ms=%.4g",
		phase, c.sent, c.ok, c.shed, c.failed, lateP99Ms(recs))
	return c
}

// okRows sums the rows of the successful records.
func okRows(recs []record) int {
	n := 0
	for i := range recs {
		if recs[i].ok() {
			n += recs[i].rows
		}
	}
	return n
}

// addLatency reports score_p50_ms and score_p99_ms from exact samples,
// the p99 as the median of chunk p99s (see chunkedP99).
func (b *bench) addLatency(recs []record) {
	lat := dueLatencies(recs)
	p50, _ := quantile(sortedCopy(lat), 0.5)
	b.res.addInfo("score_p50_ms", p50, "ms", fmt.Sprintf("(n=%d exact samples)", len(lat)))
	p99, chunks, ok := chunkedP99(lat)
	if !ok {
		b.res.logf("score_p99_ms not reported: %d samples leave fewer than ten beyond a p99", len(lat))
		return
	}
	b.res.addInfo("score_p99_ms", p99, "ms", fmt.Sprintf("(median of %d chunk p99s over n=%d exact samples)", chunks, len(lat)))
}

// addCPU reports the nodes' CPU time spent since cpu0 per successful
// request.
func (b *bench) addCPU(cpu0 float64, ok int) error {
	cpu1, err := b.g.cpuSeconds()
	if err != nil {
		return err
	}
	b.res.add("cpu_ms_per_req", (cpu1-cpu0)*1000/float64(max(ok, 1)), "ms",
		fmt.Sprintf("(rpcd user+system CPU, summed over nodes, per 2xx of %d)", ok))
	return nil
}

// finishE2E adds the metrics every workload reports the same way.
func (b *bench) finishE2E(setup []float64, fitMs []float64) error {
	b.res.add("setup_s", median(setup), "s", fmt.Sprintf("(median of %d set-ups)", len(setup)))
	b.res.addInfo("fit_p50_ms", median(fitMs), "ms", fmt.Sprintf("(n=%d fits)", len(fitMs)))
	rss, err := b.g.peakRSSMB()
	if err != nil {
		return err
	}
	b.res.add("peak_rss_mb", rss, "MB", fmt.Sprintf("(VmHWM summed over %d rpcd)", len(b.g.nodes)))
	return nil
}

// ---------------------------------------------------------------------
// small-open

func runSmallOpen(ctx context.Context, b *bench) error {
	rng := b.rng(1)
	fitData := make([][][]float64, smallModels)
	for i := range fitData {
		fitData[i] = attrRows(rng, smallFitRows, smallDim)
	}
	bodies := makeBodies(rng, smallBodies, smallDim, uniformRows(1, 8))
	ids := make([]string, smallModels)
	// pick draws a stream of n requests: model uniform over the 16, 80%
	// score and 20% rank, and a body of 1–8 rows. Request i of the stream
	// is entry i mod n.
	pick := func(r *rand.Rand, n int) func(i int, rec *record) *scoreBody {
		models, ops, bod := make([]int, n), make([]byte, n), make([]int, n)
		for i := range models {
			models[i], ops[i], bod[i] = r.Intn(smallModels), 's', r.Intn(len(bodies))
			if r.Float64() < 0.2 {
				ops[i] = 'r'
			}
		}
		return func(i int, rec *record) *scoreBody {
			i %= n
			sb := &bodies[bod[i]]
			rec.model, rec.op, rec.rows, rec.sb = ids[models[i]], ops[i], len(sb.rows), sb
			return sb
		}
	}
	var fitMs []float64
	setup, err := b.setupTimes(ctx, 1, func(ctx context.Context, g *group) error {
		b.conns = []*sender{}
		for c := 0; c < runtime.NumCPU(); c++ {
			b.conns = append(b.conns, newSender(g.nodes[0].url, 0))
		}
		for i := range fitData {
			id, lat, err := b.fit(ctx, b.conns[0], fmt.Sprintf("s%02d", i), fitData[i], int64(i+1))
			if err != nil {
				return err
			}
			ids[i] = id
			fitMs = append(fitMs, lat)
		}
		return b.warm(ctx, 400, pick(b.rng(2), 400))
	})
	if err != nil {
		return err
	}

	fixedDur := time.Duration(float64(b.cfg.seconds) * smallFixedShare * float64(time.Second))
	due := poissonArrivals(b.rng(3), smallRate, fixedDur)
	if b.cfg.trace {
		before, err := b.g.scrape(ctx)
		if err != nil {
			return err
		}
		recs, start := b.openPhase(ctx, due, true, pick(b.rng(4), len(due)))
		after, err := b.g.scrape(ctx)
		if err != nil {
			return err
		}
		return b.traceRun(ctx, recs, start, fixedDur, before, after, fitInput{fitData[0], 1}, nil)
	}
	cpu0, err := b.g.cpuSeconds()
	if err != nil {
		return err
	}
	recs, _ := b.openPhase(ctx, due, false, pick(b.rng(4), len(due)))
	fixed := b.account(fmt.Sprintf("fixed@%g", smallRate), recs)
	if err := b.addCPU(cpu0, fixed.ok); err != nil {
		return err
	}
	b.addLatency(recs)
	b.res.addInfo("rows_per_s", float64(okRows(recs))/fixedDur.Seconds(), "rows/s",
		fmt.Sprintf("(%d rows at %g req/s)", okRows(recs), smallRate))

	// max_rate_rps: the same request mix sent back to back on the nproc
	// connections. No backlog can build and every request is answered at
	// its service time, so this is the highest rate the node sustains
	// within the limit.
	sat, _, satEnd := b.closedPhase(ctx, time.Duration(float64(b.cfg.seconds)*smallSatShare*float64(time.Second)), false,
		pick(b.rng(5), 1<<17))
	c := b.account(fmt.Sprintf("closed x%d", len(b.conns)), sat)
	b.res.addInfo("max_rate_rps", float64(c.ok)/satEnd.Seconds(), "1/s",
		fmt.Sprintf("(closed-loop completions, %d connections)", len(b.conns)))

	// The open-loop rate ladder. Each step is its own Poisson stream; a
	// scheduling stall of the host can make one step miss at any rate, so
	// the ladder ends only after smallLadderMisses consecutive misses and
	// reports the highest step met before them.
	best, misses := 0.0, 0
	for k, rate := 0, smallLadderStart; k < smallLadderSteps && misses < smallLadderMisses; k, rate = k+1, rate*smallLadderRatio {
		rate = math.Round(rate)
		due := poissonArrivals(b.rng(int64(100+2*k)), rate, smallStepDur)
		recs, _ := b.openPhase(ctx, due, false, pick(b.rng(int64(101+2*k)), len(due)))
		b.account(fmt.Sprintf("ladder@%g", rate), recs)
		met, why := ladderStep(recs, smallStepDur)
		b.res.logf("ladder step %g req/s: %s", rate, why)
		misses++
		if met {
			best, misses = rate, 0
		}
		time.Sleep(20 * time.Millisecond) // let the step's tail drain
	}
	b.res.addInfo("ladder_rate_rps", best, "1/s",
		fmt.Sprintf("(open-loop ladder: highest step with p50 <= %g ms and no growing backlog)", smallLimitMs))
	return b.finishE2E(setup, fitMs)
}

// ladderStep decides whether a ladder step met the limit: the median
// due-time latency, with failed or shed requests counting as misses, is
// within smallLimitMs, and the backlog is not growing — in the step's last
// quarter the generator still sends the median request within
// smallLimitMs of its due time.
func ladderStep(recs []record, stepDur time.Duration) (bool, string) {
	lat, failed := latenciesMs(recs)
	s := summarize(lat, failed)
	var late []float64
	for i := range recs {
		if recs[i].due >= stepDur*3/4 {
			late = append(late, ms(recs[i].sent-recs[i].due))
		}
	}
	lastLate := median(late)
	srt := sortedCopy(lat)
	p90, _ := quantile(srt, 0.9)
	pass := s.n > 0 && s.p50 <= smallLimitMs && lastLate <= smallLimitMs
	return pass, fmt.Sprintf("p50=%.4g p90=%.4g p99=%.4g ms (n=%d) last-quarter late p50=%.4g ms pass=%v",
		s.p50, p90, s.p99, s.n, lastLate, pass)
}

// ---------------------------------------------------------------------
// bulk-closed

func runBulkClosed(ctx context.Context, b *bench) error {
	rng := b.rng(1)
	fitRows := attrRows(rng, bulkFitRows, bulkDim)
	bodies := makeBodies(rng, bulkBodies, bulkDim, uniformRows(bulkRows, bulkRows))
	var id string
	var fitMs []float64
	// pick alternates score and rank and rotates through the bodies.
	pick := func(i int, rec *record) *scoreBody {
		sb := &bodies[i%len(bodies)]
		rec.model, rec.op, rec.rows, rec.sb = id, 's', len(sb.rows), sb
		if i%2 == 1 {
			rec.op = 'r'
		}
		return sb
	}
	setup, err := b.setupTimes(ctx, 1, func(ctx context.Context, g *group) error {
		b.conns = []*sender{}
		for c := 0; c < runtime.NumCPU(); c++ {
			b.conns = append(b.conns, newSender(g.nodes[0].url, 0))
		}
		var lat float64
		var err error
		id, lat, err = b.fit(ctx, b.conns[0], "bulk", fitRows, 7)
		if err != nil {
			return err
		}
		fitMs = append(fitMs, lat)
		return b.warm(ctx, 2*len(bodies), pick)
	})
	if err != nil {
		return err
	}

	var before []promSample
	if b.cfg.trace {
		if before, err = b.g.scrape(ctx); err != nil {
			return err
		}
	}
	cpu0, err := b.g.cpuSeconds()
	if err != nil {
		return err
	}
	recs, start, end := b.closedPhase(ctx, time.Duration(b.cfg.seconds)*time.Second, b.cfg.trace, pick)
	if b.cfg.trace {
		after, err := b.g.scrape(ctx)
		if err != nil {
			return err
		}
		return b.traceRun(ctx, recs, start, end, before, after, fitInput{fitRows, 7}, nil)
	}
	c := b.account(fmt.Sprintf("closed x%d", len(b.conns)), recs)
	if err := b.addCPU(cpu0, c.ok); err != nil {
		return err
	}
	b.addLatency(recs)
	b.res.addInfo("rows_per_s", float64(okRows(recs))/end.Seconds(), "rows/s",
		fmt.Sprintf("(%d rows in %.3f s, %d connections)", okRows(recs), end.Seconds(), len(b.conns)))
	b.res.addInfo("max_rate_rps", float64(c.ok)/end.Seconds(), "1/s",
		fmt.Sprintf("(closed-loop completions, %d connections)", len(b.conns)))
	return b.finishE2E(setup, fitMs)
}

// ---------------------------------------------------------------------
// group-churn

// modelRef is one entry of group-churn's popularity list.
type modelRef struct {
	id  string
	dim int
}

func runGroupChurn(ctx context.Context, b *bench) error {
	rng := b.rng(1)
	baseDims := []int{3, 3, 8, 8}
	baseRows := make([][][]float64, len(baseDims))
	for i, d := range baseDims {
		baseRows[i] = attrRows(rng, churnBaseRows, d)
	}
	bodies := map[int][]scoreBody{}
	for _, d := range []int{3, churnFitDim, 8} {
		bodies[d] = makeBodies(rng, churnBodies, d, logUniformRows(churnMaxRows))
	}
	// The popularity list: the installed models in a seeded order, except
	// that d=3 and d=8 models alternate, so every seed puts the same share
	// of the traffic on each dimension. Each fitted model is pushed to the
	// front as it becomes visible.
	byDim := map[int][]int{}
	for _, k := range rng.Perm(churnModels) {
		d := baseDims[k%len(baseDims)]
		byDim[d] = append(byDim[d], k)
	}
	initial := make([]modelRef, churnModels)
	for rank := range initial {
		d := []int{3, 8}[rank%2]
		k := byDim[d][rank/2]
		initial[rank] = modelRef{id: fmt.Sprintf("g%03d-v1", k), dim: d}
	}
	var popular atomic.Pointer[[]modelRef]

	// Connections: the score connections enter the nodes round-robin; fits
	// enter on their own connection, at a node no score connection enters
	// when there is one. Together they use nproc connections.
	nScore := max(1, runtime.NumCPU()-1)
	entered := map[int]bool{}
	for c := 0; c < nScore; c++ {
		entered[c%churnNodes] = true
	}
	fitNode := 0
	for n := churnNodes - 1; n >= 0; n-- {
		if !entered[n] {
			fitNode = n
		}
	}
	var fitConn *sender
	pickStream := func(r *rand.Rand, n int) func(i int, rec *record) *scoreBody {
		ranks := zipfRanks(r, n, churnModels, churnZipfS)
		bod := make([]int, n)
		for i := range bod {
			bod[i] = r.Intn(churnBodies)
		}
		return func(i int, rec *record) *scoreBody {
			m := (*popular.Load())[ranks[i]]
			sb := &bodies[m.dim][bod[i]]
			rec.model, rec.op, rec.rows, rec.sb = m.id, 's', len(sb.rows), sb
			return sb
		}
	}
	setup, err := b.setupTimes(ctx, churnNodes, func(ctx context.Context, g *group) error {
		popular.Store(&initial)
		b.conns = []*sender{}
		for c := 0; c < nScore; c++ {
			b.conns = append(b.conns, newSender(g.nodes[c%churnNodes].url, c%churnNodes))
		}
		if fitConn != nil {
			fitConn.close()
		}
		fitConn = newSender(g.nodes[fitNode].url, fitNode)
		docs := make([][]byte, len(baseRows))
		for i, rows := range baseRows {
			id, _, err := b.fit(ctx, fitConn, fmt.Sprintf("base%d", i), rows, int64(i+1))
			if err != nil {
				return err
			}
			if docs[i], err = b.ruleDoc(ctx, g, fitNode, id); err != nil {
				return err
			}
		}
		if err := installCopies(ctx, g, docs); err != nil {
			return err
		}
		return b.warm(ctx, 300, pickStream(b.rng(2), 300))
	})
	defer func() {
		if fitConn != nil {
			fitConn.close()
		}
	}()
	if err != nil {
		return err
	}
	before, err := b.g.scrape(ctx)
	if err != nil {
		return err
	}

	window := time.Duration(b.cfg.seconds) * time.Second
	due := poissonArrivals(b.rng(3), churnRate, window)
	fitRng := b.rng(5)
	var fitTimes []time.Duration
	for at := churnFitPeriod / 2; at < window; at += churnFitPeriod {
		fitTimes = append(fitTimes, at)
	}
	fitRows := make([][][]float64, len(fitTimes))
	for i := range fitRows {
		fitRows[i] = attrRows(fitRng, churnFitRows, churnFitDim)
	}
	var fitMs, lagMs []float64
	var fitErr error
	cpu0, err := b.g.cpuSeconds()
	if err != nil {
		return err
	}
	start := time.Now() // the fit schedule's base; the score phase starts with it
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, at := range fitTimes {
			select {
			case <-time.After(time.Until(start.Add(at))):
			case <-ctx.Done():
				fitErr = ctx.Err()
				return
			}
			id, lat, err := b.fit(ctx, fitConn, fmt.Sprintf("fit%02d", k), fitRows[k], int64(100+k))
			b.res.attempted++
			if err != nil {
				b.res.failed++
				fitErr = err
				return
			}
			fitMs = append(fitMs, lat)
			t0 := time.Now()
			if err := b.g.waitVisible(ctx, id); err != nil {
				fitErr = err
				return
			}
			lagMs = append(lagMs, ms(time.Since(t0)))
			next := append([]modelRef{{id: id, dim: churnFitDim}}, *popular.Load()...)
			popular.Store(&next)
		}
	}()
	recs, _ := b.openPhase(ctx, due, b.cfg.trace, pickStream(b.rng(4), len(due)))
	wg.Wait()
	if fitErr != nil {
		return fitErr
	}
	b.res.logf("fits %d: p50 %.4g ms, install lag p50 %.4g ms max %.4g ms", len(fitMs), median(fitMs), median(lagMs), maxOf(lagMs))
	if b.cfg.trace {
		after, err := b.g.scrape(ctx)
		if err != nil {
			return err
		}
		return b.traceRun(ctx, recs, start, window, before, after, fitInput{fitRows[0], 100}, lagMs)
	}
	c := b.account(fmt.Sprintf("open@%g", churnRate), recs)
	if err := b.addCPU(cpu0, c.ok); err != nil {
		return err
	}
	b.addLatency(recs)
	b.res.addInfo("rows_per_s", float64(okRows(recs))/window.Seconds(), "rows/s",
		fmt.Sprintf("(%d rows at %g req/s)", okRows(recs), churnRate))
	b.res.addInfo("max_rate_rps", float64(c.ok)/window.Seconds(), "1/s",
		fmt.Sprintf("(completed score requests, offered %g/s)", churnRate))
	return b.finishE2E(setup, fitMs)
}

// installCopies installs churnModels rules named g000…g511, each a copy of
// one of docs (round-robin), spread over the nodes from nproc parallel
// clients, then waits until every node holds every rule.
func installCopies(ctx context.Context, g *group, docs [][]byte) error {
	var next atomic.Int64
	errs := make(chan error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= churnModels {
					return
				}
				body := fmt.Sprintf(`{"name":"g%03d","rule":%s}`, k, docs[k%len(docs)])
				resp, status, err := g.post(ctx, g.nodes[k%len(g.nodes)].url+"/v1/models", []byte(body))
				if err == nil && status != 201 {
					err = fmt.Errorf("install g%03d: status %d: %s", k, status, resp)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	want := churnModels + len(docs)
	for _, nd := range g.nodes {
		for {
			var h struct {
				Models int `json:"models"`
			}
			if err := g.getJSON(ctx, nd.url+"/healthz", &h); err != nil {
				return err
			}
			if h.Models >= want {
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// waitVisible polls every node until each answers GET /v1/models/{id}.
func (g *group) waitVisible(ctx context.Context, id string) error {
	for _, nd := range g.nodes {
		for {
			_, status, err := g.get(ctx, nd.url+"/v1/models/"+id)
			if err != nil {
				return err
			}
			if status == 200 {
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// ruleDoc fetches a model's rule document from a node.
func (b *bench) ruleDoc(ctx context.Context, g *group, node int, id string) ([]byte, error) {
	doc, status, err := g.get(ctx, g.nodes[node].url+"/v1/models/"+id+"/rule")
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("rule %s: status %d", id, status)
	}
	return doc, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
