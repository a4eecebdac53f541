package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rpcrank/internal/core"
)

// TestFitDiagnosticsPersist pins the fit-telemetry envelope: diagnostics
// ride on Meta (not inside the rule document), survive a registry reopen,
// and stay nil for rules installed from a saved document.
func TestFitDiagnosticsPersist(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := fitTestModel(t)
	if m.FitDiag == nil {
		t.Fatal("fitted model carries no diagnostics")
	}
	meta, err := reg.Put("wine", m, 8, m.ExplainedVariance())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Fit == nil {
		t.Fatal("Put dropped FitDiag from the metadata")
	}
	if meta.Fit.Iterations != m.FitDiag.Iterations || meta.Fit.FinalObjective != m.FitDiag.FinalObjective {
		t.Errorf("meta.Fit = %+v, model diag = %+v", meta.Fit, m.FitDiag)
	}

	// A model round-tripped through Save/Load is a pure serving artifact:
	// no diagnostics, so its registry entry has none either.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FitDiag != nil {
		t.Error("loaded model unexpectedly carries diagnostics")
	}
	metaLoaded, err := reg.Put("uploaded", loaded, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if metaLoaded.Fit != nil {
		t.Error("uploaded rule unexpectedly carries diagnostics")
	}

	// Reopen from disk: diagnostics must come back from the envelope.
	reg2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reg2.GetMeta("wine-v1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fit == nil {
		t.Fatal("diagnostics lost across registry reopen")
	}
	if got.Fit.Iterations != m.FitDiag.Iterations {
		t.Errorf("reloaded iterations %d, want %d", got.Fit.Iterations, m.FitDiag.Iterations)
	}
	if got.Fit.FinalObjective != m.FitDiag.FinalObjective {
		t.Errorf("reloaded final objective %v, want %v", got.Fit.FinalObjective, m.FitDiag.FinalObjective)
	}
	if len(got.Fit.Trace) != len(m.FitDiag.Trace) {
		t.Errorf("reloaded trace has %d entries, want %d", len(got.Fit.Trace), len(m.FitDiag.Trace))
	}
	got2, err := reg2.GetMeta("uploaded-v1")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Fit != nil {
		t.Error("uploaded rule gained diagnostics across reopen")
	}
}

// TestFitDiagnosticsLegacyStages opens records written before fit
// diagnostics dropped their projection-stage split: the envelope's fit
// object still carries "stages":{"gemm_ns","seed_ns","refine_ns"}. Open,
// GetMeta and Get must accept them, in both the checksummed and the legacy
// unsealed record format, with every remaining diagnostics field intact.
func TestFitDiagnosticsLegacyStages(t *testing.T) {
	const legacyMeta = `{"id":"wine-v1","name":"wine","version":1,"dim":3,` +
		`"alpha":[1,1,-1],"degree":3,"rows":8,"explained_variance":0.93,"monotone":true,` +
		`"created_at":"2026-10-16T09:30:00Z",` +
		`"fit":{"restart":1,"restarts":2,"iterations":7,"converged":true,` +
		`"initial_objective":0.5,"final_objective":0.25,"warm_start_hit_rate":0.75,` +
		`"stages":{"gemm_ns":1200,"seed_ns":3400,"refine_ns":56000},` +
		`"trace":[{"iter":0,"objective":0.5,"accepted":true},` +
		`{"restart":1,"iter":1,"objective":0.25,"accepted":true,"warm_rows":8,"warm_hits":6}],` +
		`"trace_truncated":true}}`
	var rule bytes.Buffer
	if err := fitTestModel(t).Save(&rule); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"meta":` + legacyMeta + `,"model":` + rule.String() + `}`)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"sealed", sealRecord(payload)},
		{"unsealed", payload},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "wine-v1.json"), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			reg, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if s := reg.Skipped(); len(s) != 0 {
				t.Fatalf("Open skipped legacy record: %v", s)
			}
			meta, err := reg.GetMeta("wine-v1")
			if err != nil {
				t.Fatal(err)
			}
			want := core.FitDiagnostics{
				Restart: 1, Restarts: 2, Iterations: 7, Converged: true,
				InitialObjective: 0.5, FinalObjective: 0.25, WarmStartHitRate: 0.75,
				Trace: []core.FitIteration{
					{Iter: 0, Objective: 0.5, Accepted: true},
					{Restart: 1, Iter: 1, Objective: 0.25, Accepted: true, WarmRows: 8, WarmHits: 6},
				},
				TraceTruncated: true,
			}
			if meta.Fit == nil || !reflect.DeepEqual(*meta.Fit, want) {
				t.Fatalf("legacy fit diagnostics = %+v, want %+v", meta.Fit, want)
			}
			if meta.Name != "wine" || meta.Version != 1 || meta.Rows != 8 || meta.ExplainedVariance != 0.93 {
				t.Fatalf("legacy meta = %+v", meta)
			}
			m, _, err := reg.Get("wine-v1")
			if err != nil {
				t.Fatal(err)
			}
			if s := m.Score(probeRows[0]); !(s >= 0 && s <= 1) {
				t.Fatalf("legacy rule scored %v", s)
			}
		})
	}
}
