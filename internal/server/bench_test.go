package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"rpcrank/internal/core"
	"rpcrank/internal/order"
	"rpcrank/internal/registry"
)

func benchServer(b testing.TB) *Server {
	b.Helper()
	reg, err := registry.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	train := make([][]float64, 64)
	for i := range train {
		u := float64(i) / 63
		train[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	m, err := core.Fit(train, core.Options{Alpha: order.MustDirection(1, 1, -1), Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := reg.Put("bench", m, len(train), 0); err != nil {
		b.Fatal(err)
	}
	return New(reg, Options{})
}

func benchRows(size int) [][]float64 {
	rows := make([][]float64, size)
	for i := range rows {
		u := float64(i%997) / 996
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	return rows
}

// replayBody is a resettable io.ReadCloser over one request body, so the
// benchmark loop re-serves the same bytes without per-iteration reader
// allocations.
type replayBody struct{ r bytes.Reader }

func (rb *replayBody) Read(p []byte) (int, error) { return rb.r.Read(p) }
func (rb *replayBody) Close() error               { return nil }

// discardWriter is a reusable ResponseWriter that counts body bytes and
// keeps the status, adding no per-request allocations of its own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}
func (d *discardWriter) WriteHeader(code int) { d.status = code }

// BenchmarkServerScoreBatch measures the server data plane of the score
// path — mux routing, frame decode, validation, worker-pool scoring over
// the shared frame, response encode — by driving ServeHTTP directly, at
// batch sizes spanning the serial path (1), the threshold region (100), and
// the sharded path (10k). Transport cost is excluded (see
// BenchmarkServerScoreHTTP for the socket-level number), so allocs/op here
// is the data plane's own footprint: pooled body, frame, scores, and
// response buffers make it independent of the row count.
func BenchmarkServerScoreBatch(b *testing.B) {
	benchServeBatch(b, "score", 1, 100, 10_000)
}

// BenchmarkServerRankBatch is BenchmarkServerScoreBatch for /rank at the
// sharded size: the same data plane plus ranking the scores into
// positions and encoding both.
func BenchmarkServerRankBatch(b *testing.B) {
	benchServeBatch(b, "rank", 10_000)
}

// benchServeBatch drives POST /v1/models/bench-v1/{op} through ServeHTTP
// once per iteration, one sub-benchmark per batch size.
func benchServeBatch(b *testing.B, op string, sizes ...int) {
	s := benchServer(b)
	defer s.Close()

	for _, size := range sizes {
		body, err := json.Marshal(ScoreRequest{Rows: benchRows(size)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", size), func(b *testing.B) {
			serve := replayer(s, op, body)
			// One warm-up round trip, checked for correctness outside the
			// timed loop.
			if status := serve(); status != http.StatusOK {
				b.Fatalf("status %d", status)
			}

			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status := serve(); status != http.StatusOK {
					b.Fatalf("status %d", status)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// replayer returns a function that POSTs body to /v1/models/bench-v1/{op}
// through s.ServeHTTP and returns the response status. It reuses one
// request, body reader and response writer, so calls add no allocations
// of their own.
func replayer(s *Server, op string, body []byte) func() int {
	rb := &replayBody{}
	req := httptest.NewRequest("POST", "/v1/models/bench-v1/"+op, nil)
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(body))
	w := &discardWriter{h: make(http.Header)}
	return func() int {
		rb.r.Reset(body)
		req.Body = rb
		w.status, w.n = http.StatusOK, 0
		s.ServeHTTP(w, req)
		return w.status
	}
}

// BenchmarkServerScoreHTTP measures the same path end to end over a real
// TCP connection — HTTP client, transport, server goroutine, response
// decode — anchoring the number a remote caller actually sees.
func BenchmarkServerScoreHTTP(b *testing.B) {
	s := benchServer(b)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, size := range []int{1, 10_000} {
		body, err := json.Marshal(ScoreRequest{Rows: benchRows(size)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", size), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+"/v1/models/bench-v1/score", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var out ScoreResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if out.Count != size {
					b.Fatalf("scored %d rows, want %d", out.Count, size)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
