package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"

	"rpcrank/internal/core"
	"rpcrank/internal/order"
)

// scoreTol is the agreement required between a served score and the
// in-process model's: the compiled-scorer contract of core.
const scoreTol = 1e-12

// scoreCheck is one sampled score or rank answer.
type scoreCheck struct {
	model string
	op    byte
	rows  [][]float64
	resp  []byte
}

// fitCheck is one fit answer with the inputs that produced it.
type fitCheck struct {
	name string // the fitted model's id
	rows [][]float64
	seed int64
	resp []byte
}

// scoreAnswer is a /score or /rank response body.
type scoreAnswer struct {
	ModelID   string    `json:"model_id"`
	Count     int       `json:"count"`
	Scores    []float64 `json:"scores"`
	Positions []int     `json:"positions"`
}

// verify checks every sampled answer after the timed window: scores
// against core.Load of the node's rule document and Model.Score, rank
// positions against order.RankFromScores, and fits against an in-process
// core.Fit with the server's options. Mismatches count in res.wrong; an
// error means verification itself could not run.
func (b *bench) verify(ctx context.Context) error {
	models := map[string]*core.Model{}
	wrong := func(format string, args ...any) {
		b.res.wrong++
		if b.res.wrong <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: wrong answer: "+format+"\n", args...)
		}
	}
	for _, c := range b.scoreChecks {
		m, ok := models[c.model]
		if !ok {
			doc, err := b.ruleDoc(ctx, b.g, 0, c.model)
			if err != nil {
				return err
			}
			if m, err = core.Load(bytes.NewReader(doc)); err != nil {
				return fmt.Errorf("loading rule %s: %w", c.model, err)
			}
			models[c.model] = m
		}
		var a scoreAnswer
		if err := json.Unmarshal(c.resp, &a); err != nil {
			wrong("%s: undecodable answer: %v", c.model, err)
			continue
		}
		if a.ModelID != c.model || a.Count != len(c.rows) || len(a.Scores) != len(c.rows) {
			wrong("%s: answer for %q with %d scores, want %d", c.model, a.ModelID, len(a.Scores), len(c.rows))
			continue
		}
		if j := firstScoreMismatch(m, c.rows, a.Scores); j >= 0 {
			wrong("%s row %d: served %v, model scores %v", c.model, j, a.Scores[j], m.Score(c.rows[j]))
			continue
		}
		if c.op == 'r' && !slices.Equal(a.Positions, order.RankFromScores(a.Scores)) {
			wrong("%s: rank positions differ from order.RankFromScores", c.model)
		}
	}
	for _, c := range b.fitChecks {
		var a fitResp
		if err := json.Unmarshal(c.resp, &a); err != nil {
			wrong("fit %s: undecodable answer: %v", c.name, err)
			continue
		}
		alpha, err := order.NewDirection(alphaFor(len(c.rows[0]))...)
		if err != nil {
			return err
		}
		m, err := core.Fit(c.rows, core.Options{Alpha: alpha, Restarts: 3, Seed: c.seed, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return fmt.Errorf("in-process fit %s: %w", c.name, err)
		}
		if a.Model.Dim != len(c.rows[0]) || len(a.Scores) != len(m.Scores) {
			wrong("fit %s: dim %d with %d scores", c.name, a.Model.Dim, len(a.Scores))
			continue
		}
		for j := range m.Scores {
			if math.Abs(a.Scores[j]-m.Scores[j]) > scoreTol {
				wrong("fit %s row %d: served %v, in-process fit %v", c.name, j, a.Scores[j], m.Scores[j])
				break
			}
		}
		if !slices.Equal(a.Positions, order.RankFromScores(a.Scores)) {
			wrong("fit %s: positions differ from order.RankFromScores", c.name)
		}
	}
	b.res.logf("verified %d sampled score/rank answers and %d fits: %d wrong",
		len(b.scoreChecks), len(b.fitChecks), b.res.wrong)
	b.scoreChecks, b.fitChecks = nil, nil
	return nil
}

// firstScoreMismatch returns the first row whose served score is not
// within scoreTol of the model's, or -1.
func firstScoreMismatch(m *core.Model, rows [][]float64, served []float64) int {
	for j, row := range rows {
		if math.Abs(served[j]-m.Score(row)) > scoreTol {
			return j
		}
	}
	return -1
}
