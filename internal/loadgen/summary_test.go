package loadgen

import (
	"encoding/hex"
	"testing"

	"openmeta/internal/obsv"
)

// TestHistEdgeCases: the latency summary of an empty histogram is all
// zeros, and negative samples (clock skew between the publish stamp and the
// receive clock) keep an exact min that the low quantiles report.
func TestHistEdgeCases(t *testing.T) {
	var h obsv.Histogram
	if s := summarize(&h); s != (LatencySummary{}) {
		t.Fatalf("empty histogram summary = %+v, want zeros", s)
	}
	h.Observe(-50)
	h.Observe(10)
	s := summarize(&h)
	if s.Count != 2 || s.Min != -50 || s.Max != 10 {
		t.Fatalf("count/min/max = %d/%d/%d, want 2/-50/10", s.Count, s.Min, s.Max)
	}
	if s.P50 != -50 || s.P99 != 10 {
		t.Fatalf("p50/p99 = %d/%d, want the observed min/max", s.P50, s.P99)
	}
}

// TestHistExemplars: the autopsy resolves the p99 to the nearest traced
// sample at or above it (else the largest), over per-subscriber histograms
// merged the way Run merges them.
func TestHistExemplars(t *testing.T) {
	tidOf := func(b byte) (tid [16]byte) {
		tid[15] = b
		return
	}
	hexOf := func(b byte) string {
		tid := tidOf(b)
		return hex.EncodeToString(tid[:])
	}
	var a, b obsv.Histogram
	a.Observe(10)
	a.ObserveExemplar(100, tidOf(1))
	b.ObserveExemplar(5000, tidOf(2))
	b.ObserveExemplar(120, tidOf(3))  // same octave as 100, larger: wins the merge
	a.ObserveExemplar(40, [16]byte{}) // untraced: counted, no exemplar
	var overall obsv.Histogram
	overall.Merge(&a)
	overall.Merge(&b)
	if n := overall.Value().Count; n != 5 {
		t.Fatalf("count = %d, want 5 (exemplar recording must still count)", n)
	}
	exs := overall.Exemplars()

	// Nearest at-or-above wins.
	if e, ok := exemplarNear(exs, 110); !ok || e.Value != 120 || e.TraceID != hexOf(3) {
		t.Fatalf("exemplarNear(110) = %+v %v", e, ok)
	}
	// Above every exemplar: fall back to the largest.
	if e, ok := exemplarNear(exs, 1<<40); !ok || e.Value != 5000 || e.TraceID != hexOf(2) {
		t.Fatalf("exemplarNear(huge) = %+v %v", e, ok)
	}
	// Below every exemplar: smallest at-or-above.
	if e, ok := exemplarNear(exs, 0); !ok || e.Value != 120 {
		t.Fatalf("exemplarNear(0) = %+v %v", e, ok)
	}
	// No traced samples at all.
	var untraced obsv.Histogram
	untraced.Observe(7)
	if _, ok := exemplarNear(untraced.Exemplars(), 7); ok {
		t.Fatal("exemplar from untraced histogram")
	}
	if buildAutopsy(&untraced, nil) != nil {
		t.Fatal("autopsy without a traced sample")
	}
}
