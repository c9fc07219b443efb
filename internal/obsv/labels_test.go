package obsv

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterVecChildren(t *testing.T) {
	r := New()
	wire := r.CounterVec("wire.bytes", "stream", "format")
	wire.With("orders", "f1").Add(100)
	wire.With("orders", "f1").Add(50) // same child
	wire.With("orders", "f2").Add(7)
	wire.With("audit", "f1").Add(1)

	snap := r.Snapshot()
	cases := map[string]int64{
		`wire.bytes{stream="orders",format="f1"}`: 150,
		`wire.bytes{stream="orders",format="f2"}`: 7,
		`wire.bytes{stream="audit",format="f1"}`:  1,
	}
	for k, want := range cases {
		if snap[k] != want {
			t.Errorf("snap[%q] = %d, want %d (snapshot: %v)", k, snap[k], want, snap)
		}
	}
	// Same name resolves to the same vector.
	if r.CounterVec("wire.bytes", "stream", "format") != wire {
		t.Fatal("CounterVec not idempotent")
	}
}

func TestGaugeAndHistogramVecSnapshot(t *testing.T) {
	r := New()
	r.GaugeVec("ratio", "format").With("f1").Set(642)
	h := r.HistogramVec("lat", "op").With("enc")
	h.Observe(100)
	h.Observe(200)

	snap := r.Snapshot()
	if snap[`ratio{format="f1"}`] != 642 {
		t.Fatalf("gauge child missing: %v", snap)
	}
	if snap[`lat{op="enc"}.count`] != 2 || snap[`lat{op="enc"}.sum`] != 300 {
		t.Fatalf("hist child missing: %v", snap)
	}
	// The .count suffix stays terminal so suffix-driven tools group the family.
	if !strings.HasSuffix(`lat{op="enc"}.count`, ".count") {
		t.Fatal("suffix not terminal")
	}
}

func TestVecNilSafe(t *testing.T) {
	var r *Registry
	r.CounterVec("x", "k").With("v").Add(1) // all no-ops
	r.GaugeVec("x", "k").With("v").Set(1)
	r.HistogramVec("x", "k").With("v").Observe(1)
}

func TestVecMissingAndExtraValues(t *testing.T) {
	r := New()
	v := r.CounterVec("c", "a", "b")
	v.With("only").Add(1)              // missing b -> ""
	v.With("x", "y", "ignored").Add(2) // extra value dropped
	snap := r.Snapshot()
	if snap[`c{a="only",b=""}`] != 1 || snap[`c{a="x",b="y"}`] != 2 {
		t.Fatalf("snapshot: %v", snap)
	}
}

func TestLabelSetEscaping(t *testing.T) {
	ls := LabelSet{{Key: "k", Value: `a"b\c` + "\n"}}
	want := `{k="a\"b\\c\n"}`
	if got := ls.String(); got != want {
		t.Fatalf("LabelSet.String() = %q, want %q", got, want)
	}
	if (LabelSet{}).String() != "" {
		t.Fatal("empty LabelSet should render empty")
	}
}

func TestVecChildHotPathAllocationFree(t *testing.T) {
	r := New()
	c := r.CounterVec("c", "k").With("v")
	g := r.GaugeVec("g", "k").With("v")
	h := r.HistogramVec("h", "k").With("v")
	if allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
	}); allocs != 0 {
		t.Fatalf("labeled child hot path allocates %.1f per run", allocs)
	}
}

func TestScopedVecs(t *testing.T) {
	r := New()
	r.Scope("bus").CounterVec("wire.records", "stream").With("s1").Inc()
	if got := r.Snapshot()[`bus.wire.records{stream="s1"}`]; got != 1 {
		t.Fatalf("scoped vec child = %d, want 1", got)
	}
}

func TestPrometheusLabeledSeries(t *testing.T) {
	r := New()
	r.CounterVec("pbio.wire.bytes", "format", "dir").With("point3d", "enc").Add(4096)
	r.GaugeVec("pbio.xml.expansion", "format").With("point3d").Set(700)
	hv := r.HistogramVec("bus.frame.bytes", "stream")
	hv.With("orders").Observe(100)
	hv.With("orders").Observe(3)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, req)
	body := rec.Body.String()

	for _, want := range []string{
		"# TYPE pbio_wire_bytes counter\n",
		`pbio_wire_bytes{format="point3d",dir="enc"} 4096` + "\n",
		"# TYPE pbio_xml_expansion gauge\n",
		`pbio_xml_expansion{format="point3d"} 700` + "\n",
		"# TYPE bus_frame_bytes histogram\n",
		`bus_frame_bytes_bucket{stream="orders",le="+Inf"} 2` + "\n",
		`bus_frame_bytes_sum{stream="orders"} 103` + "\n",
		`bus_frame_bytes_count{stream="orders"} 2` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n---\n%s", want, body)
		}
	}
	// Labeled buckets must carry both the stream label and a le bound.
	if !strings.Contains(body, `bus_frame_bytes_bucket{stream="orders",le="127"}`) {
		t.Errorf("labeled bucket with le bound missing\n---\n%s", body)
	}
}

// TestHistogramVecDelete: deleting a child drops it from snapshots, frees
// its slot under the children bound and bumps the generation samplers
// watch; a later With starts a fresh child.
func TestHistogramVecDelete(t *testing.T) {
	r := New()
	r.SetMaxLabelChildren(1)
	hv := r.HistogramVec("q.ns", "conn")
	hv.With("1").Observe(5)
	gen := r.Generation()
	hv.Delete("1")
	hv.Delete("1") // already gone: no-op
	if r.Generation() != gen+1 {
		t.Fatalf("generation moved %d, want 1", r.Generation()-gen)
	}
	if _, ok := r.Snapshot()[`q.ns{conn="1"}.count`]; ok {
		t.Fatal("deleted child still in the snapshot")
	}
	hv.With("2").Observe(7) // the freed slot, not the overflow child
	snap := r.Snapshot()
	if snap[`q.ns{conn="2"}.count`] != 1 || snap[DroppedLabelsCounter] != 0 {
		t.Fatalf("child after delete did not reuse the slot: %v", snap)
	}
	if hv.With("1").Value().Count != 0 {
		t.Fatal("re-created child kept the deleted child's samples")
	}
	var nilVec *HistogramVec
	nilVec.Delete("1") // must not panic
}
