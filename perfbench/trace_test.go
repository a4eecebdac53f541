package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	us := time.Microsecond
	tr := newTracer()
	root := tr.addOffsets("client.request", 0, 1, 0, 100*us)
	// Overlapping children are counted once (10..50), and a child running
	// past its parent is clipped to the parent (90..100).
	a := tr.addOffsets("transport.write", root, 1, 10*us, 30*us)
	tr.addOffsets("transport.ttfb", root, 1, 20*us, 50*us)
	tr.addOffsets("transport.read", root, 1, 90*us, 120*us)
	// A grandchild reduces its parent's self time, not the root's.
	tr.addOffsets("inner", a, 1, 12*us, 18*us)
	lone := tr.addOffsets("registry.get", 0, 2, 0, 7*us)

	self := tr.selfTimes()
	if got := self[root]; got != 50*us {
		t.Errorf("root self time %v, want 50µs", got)
	}
	if got := self[a]; got != 14*us {
		t.Errorf("child self time %v, want 14µs (20µs minus a 6µs grandchild)", got)
	}
	if got := self[lone]; got != 7*us {
		t.Errorf("childless span self time %v, want its duration", got)
	}
}

func TestSpansWrittenAtEnd(t *testing.T) {
	tr := newTracer()
	tr.add("core.fit", 0, 0, tr.base, tr.base.Add(time.Millisecond))
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	if tr.count() != 1 {
		t.Fatalf("count %d", tr.count())
	}
}

func TestParseProm(t *testing.T) {
	s := parseProm([]byte("# HELP x\nrpcd_shed_total{reason=\"rows\"} 2\nrpcd_shed_total{reason=\"queue\"} 3\nrpcd_forwards_total 7\n"))
	if got := s.sum("rpcd_shed_total"); got != 5 {
		t.Errorf("shed sum %v", got)
	}
	if got := s.sum("rpcd_forwards_total"); got != 7 {
		t.Errorf("forwards %v", got)
	}
	if got := s.sum("rpcd_forward"); got != 0 {
		t.Errorf("prefix of a name matched: %v", got)
	}
}

func TestAdmissionP99FromBucketDeltas(t *testing.T) {
	before := []promSample{parseProm([]byte("rpcd_admission_wait_ms_bucket{le=\"0.1\"} 10\nrpcd_admission_wait_ms_bucket{le=\"0.5\"} 10\nrpcd_admission_wait_ms_bucket{le=\"+Inf\"} 10\n"))}
	after := []promSample{parseProm([]byte("rpcd_admission_wait_ms_bucket{le=\"0.1\"} 1000\nrpcd_admission_wait_ms_bucket{le=\"0.5\"} 1005\nrpcd_admission_wait_ms_bucket{le=\"+Inf\"} 1010\n"))}
	// 1000 new waits: 990 within 0.1ms, so p99 falls in the first bucket.
	if got := admissionP99(before, after); got != 0.1 {
		t.Errorf("p99 %v, want 0.1", got)
	}
	if got := admissionP99(after, after); got != 0 {
		t.Errorf("no waits: %v, want 0", got)
	}
}
