package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"rpcrank/internal/registry"
)

func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	reg, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Options{})
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func trainingRows(n int) [][]float64 {
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

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func fitModel(t *testing.T, ts *httptest.Server, name string) FitResponse {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/models", FitRequest{
		Name:  name,
		Alpha: []float64{1, 1, -1},
		Rows:  trainingRows(24),
		Seed:  3,
	})
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("fit: status %d: %s", resp.StatusCode, body)
	}
	return decodeBody[FitResponse](t, resp)
}

func TestFitScoreRankRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fit := fitModel(t, ts, "trip")
	if fit.Model.ID != "trip-v1" {
		t.Fatalf("model id = %q", fit.Model.ID)
	}
	if len(fit.Scores) != 24 || len(fit.Positions) != 24 {
		t.Fatalf("fit returned %d scores / %d positions", len(fit.Scores), len(fit.Positions))
	}
	if fit.Model.ExplainedVariance <= 0.9 {
		t.Errorf("explained variance %v suspiciously low for a curve-shaped cloud", fit.Model.ExplainedVariance)
	}

	probe := [][]float64{{0.5, 1.1, 2.9}, {5.0, 2.3, 2.0}, {9.5, 5.8, 1.1}}
	scoreResp := postJSON(t, ts.URL+"/v1/models/trip-v1/score", ScoreRequest{Rows: probe})
	if scoreResp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d", scoreResp.StatusCode)
	}
	score := decodeBody[ScoreResponse](t, scoreResp)
	if score.Count != 3 || len(score.Scores) != 3 {
		t.Fatalf("score response: %+v", score)
	}
	// The probes ascend the curve, so their scores must ascend too.
	if !(score.Scores[0] < score.Scores[1] && score.Scores[1] < score.Scores[2]) {
		t.Errorf("scores not ordered along the curve: %v", score.Scores)
	}

	rankResp := postJSON(t, ts.URL+"/v1/models/trip-v1/rank", ScoreRequest{Rows: probe})
	rank := decodeBody[RankResponse](t, rankResp)
	if want := []int{3, 2, 1}; fmt.Sprint(rank.Positions) != fmt.Sprint(want) {
		t.Errorf("positions = %v, want %v", rank.Positions, want)
	}
	for i := range rank.Scores {
		if rank.Scores[i] != score.Scores[i] {
			t.Errorf("rank and score disagree at %d: %v vs %v", i, rank.Scores[i], score.Scores[i])
		}
	}
}

func TestListGetDelete(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "a")
	fitModel(t, ts, "a")
	fitModel(t, ts, "b")

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[ModelList](t, resp)
	if len(list.Models) != 3 {
		t.Fatalf("list has %d models, want 3", len(list.Models))
	}

	resp, err = http.Get(ts.URL + "/v1/models/a-v2")
	if err != nil {
		t.Fatal(err)
	}
	meta := decodeBody[registry.Meta](t, resp)
	if meta.Name != "a" || meta.Version != 2 {
		t.Errorf("get meta: %+v", meta)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/a-v1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/models/a-v1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted model still served: status %d", resp.StatusCode)
	}
}

func TestRestartServesIdenticalScores(t *testing.T) {
	dir := t.TempDir()
	probe := [][]float64{{0.5, 1.1, 2.9}, {5.0, 2.3, 2.0}, {9.5, 5.8, 1.1}}

	_, ts := newTestServer(t, dir)
	fit := fitModel(t, ts, "persist")
	before := decodeBody[ScoreResponse](t, postJSON(t, ts.URL+"/v1/models/persist-v1/score", ScoreRequest{Rows: probe}))
	ts.Close()

	// A fresh server over the same model dir — a process restart — must
	// serve byte-identical scores for the same rows.
	_, ts2 := newTestServer(t, dir)
	after := decodeBody[ScoreResponse](t, postJSON(t, ts2.URL+"/v1/models/persist-v1/score", ScoreRequest{Rows: probe}))
	for i := range probe {
		if before.Scores[i] != after.Scores[i] {
			t.Errorf("row %d: score changed across restart: %v -> %v", i, before.Scores[i], after.Scores[i])
		}
	}
	if len(after.Scores) != len(probe) {
		t.Fatalf("restart response malformed: %+v", after)
	}
	if fit.Model.ID != "persist-v1" {
		t.Fatalf("unexpected id %q", fit.Model.ID)
	}
}

func TestRuleExportAndInstall(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "orig")
	probe := [][]float64{{2.2, 1.9, 2.5}, {8.0, 4.7, 1.4}}
	want := decodeBody[ScoreResponse](t, postJSON(t, ts.URL+"/v1/models/orig-v1/score", ScoreRequest{Rows: probe}))

	resp, err := http.Get(ts.URL + "/v1/models/orig-v1/rule")
	if err != nil {
		t.Fatal(err)
	}
	rule, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Install the exported rule under a new name; it must score identically.
	instResp := postJSON(t, ts.URL+"/v1/models", FitRequest{Name: "copy", Rule: rule})
	if instResp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(instResp.Body)
		t.Fatalf("install: status %d: %s", instResp.StatusCode, body)
	}
	inst := decodeBody[FitResponse](t, instResp)
	if inst.Model.ID != "copy-v1" || len(inst.Scores) != 0 {
		t.Errorf("install response: %+v", inst)
	}
	got := decodeBody[ScoreResponse](t, postJSON(t, ts.URL+"/v1/models/copy-v1/score", ScoreRequest{Rows: probe}))
	for i := range probe {
		if got.Scores[i] != want.Scores[i] {
			t.Errorf("row %d: installed rule scores %v, original %v", i, got.Scores[i], want.Scores[i])
		}
	}
}

func TestBadInputs(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "guard")

	checkStatus := func(name string, resp *http.Response, want int) {
		t.Helper()
		body := decodeBody[ErrorResponse](t, resp)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d (error %q)", name, resp.StatusCode, want, body.Error)
		}
		if body.Error == "" {
			t.Errorf("%s: error body missing", name)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/models", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	checkStatus("malformed json", resp, http.StatusBadRequest)

	checkStatus("unknown field", postJSON(t, ts.URL+"/v1/models", map[string]any{"frobnicate": 1}), http.StatusBadRequest)
	checkStatus("no rows no rule", postJSON(t, ts.URL+"/v1/models", FitRequest{Name: "x", Alpha: []float64{1}}), http.StatusBadRequest)
	checkStatus("bad alpha", postJSON(t, ts.URL+"/v1/models", FitRequest{Alpha: []float64{1, 2}, Rows: trainingRows(8)}), http.StatusBadRequest)
	checkStatus("bad name", postJSON(t, ts.URL+"/v1/models", FitRequest{Name: "../x", Alpha: []float64{1, 1, -1}, Rows: trainingRows(8)}), http.StatusBadRequest)

	// Non-finite numbers cannot even be expressed in JSON; both the NaN
	// token and an overflowing literal die in decoding with a 400. (Rows
	// that do arrive are additionally screened by order.ValidateRows —
	// see its tests for the per-row NaN/Inf errors.)
	for _, raw := range []string{
		`{"rows": [[1, 2, NaN]]}`,
		`{"rows": [[1, 2, 1e999]]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/models/guard-v1/score", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		checkStatus("non-finite literal", resp, http.StatusBadRequest)
	}

	checkStatus("ragged rows", postJSON(t, ts.URL+"/v1/models/guard-v1/score", ScoreRequest{Rows: [][]float64{{1, 2}}}), http.StatusBadRequest)
	checkStatus("unknown model", postJSON(t, ts.URL+"/v1/models/nope-v9/score", ScoreRequest{Rows: [][]float64{{1, 2, 3}}}), http.StatusNotFound)
	checkStatus("empty batch", postJSON(t, ts.URL+"/v1/models/guard-v1/score", ScoreRequest{}), http.StatusBadRequest)
}

func TestQuinticRuleWithWrongDegreeRejected(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	// A degree-2 rule claiming the quintic projector would panic scoring;
	// core.Load (and hence install) must refuse it up front.
	rule := `{
		"version": 1,
		"alpha": [1, 1],
		"control_points": [[0, 0], [0.5, 0.4], [1, 1]],
		"norm_min": [0, 0],
		"norm_max": [1, 1],
		"projector": "quintic",
		"grid_cells": 32,
		"proj_tol": 1e-10
	}`
	resp := postJSON(t, ts.URL+"/v1/models", FitRequest{Name: "poison", Rule: []byte(rule)})
	body := decodeBody[ErrorResponse](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "quintic") {
		t.Errorf("poison rule: status %d, error %q; want 400 naming the quintic projector", resp.StatusCode, body.Error)
	}

	// A negative grid would panic the grid seed on every later score request; a
	// huge one is a CPU bomb. Both die at install.
	for _, grid := range []string{"-1", "1000000000"} {
		rule := `{
			"version": 1,
			"alpha": [1, 1],
			"control_points": [[0, 0], [0.3, 0.2], [0.7, 0.6], [1, 1]],
			"norm_min": [0, 0],
			"norm_max": [1, 1],
			"projector": "gss",
			"grid_cells": ` + grid + `,
			"proj_tol": 1e-10
		}`
		resp := postJSON(t, ts.URL+"/v1/models", FitRequest{Name: "poison", Rule: []byte(rule)})
		body := decodeBody[ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "grid_cells") {
			t.Errorf("grid_cells=%s: status %d, error %q; want 400 naming grid_cells", grid, resp.StatusCode, body.Error)
		}
	}
}

func TestRequestLimits(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, Options{MaxBodyBytes: 2048, MaxBatchRows: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	// A syntactically valid body larger than MaxBodyBytes must get a 413
	// (an invalid one would die as a 400 before reaching the limit).
	big := make([][]float64, 400)
	for i := range big {
		big[i] = []float64{1.25, 2.5, 3.75}
	}
	resp := postJSON(t, ts.URL+"/v1/models", FitRequest{Alpha: []float64{1, 1, -1}, Rows: big})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/models", FitRequest{Alpha: []float64{1}, Rows: [][]float64{{1}, {2}, {3}, {4}, {5}}})
	body := decodeBody[ErrorResponse](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "limit") {
		t.Errorf("row limit: status %d, error %q", resp.StatusCode, body.Error)
	}
}

// TestReadBodyKeepsPoolAtOneBufferPerRequest checks that a pooled body
// buffer too small for the next body is dropped rather than put back, so a
// request returns at most one buffer to the pool. It runs on one P with the
// collector off, which makes sync.Pool's Get and Put order deterministic.
func TestReadBodyKeepsPoolAtOneBufferPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC() // two cycles empty every pool, victims included

	putBuf(&bodyPool, make([]byte, 0, 16))
	want := strings.Repeat("7", 1000)
	buf, err := readBody(httptest.NewRequest(http.MethodPost, "/", strings.NewReader(want)), 1<<20)
	if err != nil || string(buf) != want {
		t.Fatalf("readBody = %d bytes, %v; want the %d-byte body", len(buf), err, len(want))
	}
	putBuf(&bodyPool, buf)
	if got := getBuf(&bodyPool); cap(got) != cap(buf) {
		t.Fatalf("pool returned a %d-byte buffer, want the %d-byte one just put", cap(got), cap(buf))
	}
	if got := getBuf(&bodyPool); got != nil {
		t.Fatalf("pool still holds a %d-byte buffer: the short one was put back", cap(got))
	}
}

func TestBatchConcurrentMatchesSerial(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "batch")

	// Build a batch big enough for the concurrent path (>= threshold) and
	// check it equals row-at-a-time scoring through the same API.
	n := 4 * concurrencyThreshold
	rows := make([][]float64, n)
	for i := range rows {
		u := float64(i) / float64(n-1)
		rows[i] = []float64{10 * u, 5*u*u + 1, 3 - 2*u}
	}
	batch := decodeBody[ScoreResponse](t, postJSON(t, ts.URL+"/v1/models/batch-v1/score", ScoreRequest{Rows: rows}))
	for _, i := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
		one := decodeBody[ScoreResponse](t, postJSON(t, ts.URL+"/v1/models/batch-v1/score", ScoreRequest{Rows: rows[i : i+1]}))
		if one.Scores[0] != batch.Scores[i] {
			t.Errorf("row %d: concurrent batch score %v != serial %v", i, batch.Scores[i], one.Scores[0])
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	fitModel(t, ts, "obs")
	postJSON(t, ts.URL+"/v1/models/obs-v1/score", ScoreRequest{Rows: [][]float64{{1, 2, 3}, {4, 5, 6}}}).Body.Close()
	postJSON(t, ts.URL+"/v1/models/missing-v1/score", ScoreRequest{Rows: [][]float64{{1, 2, 3}}}).Body.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeBody[Health](t, resp)
	if health.Status != "ok" || health.Models != 1 {
		t.Errorf("healthz: %+v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`rpcd_requests_total{route="fit"} 1`,
		`rpcd_requests_total{route="score"} 2`,
		`rpcd_request_errors_total{route="score"} 1`,
		`rpcd_rows_scored_total 2`,
		`rpcd_request_duration_ms_bucket{route="score",le="+Inf"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
