package obsv

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// naiveQuantile is the sort-based reference: the ceil(q*n)-th smallest
// sample (nearest-rank definition, matching HistogramValue.Quantile).
func naiveQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sampleSets generates assorted latency-shaped distributions: uniform,
// exponential-ish tails, constant, tiny, and adversarial bucket-boundary
// values.
func sampleSets(rng *rand.Rand) [][]int64 {
	uniform := make([]int64, 5000)
	for i := range uniform {
		uniform[i] = rng.Int63n(50_000_000) // 0..50ms
	}
	tail := make([]int64, 5000)
	for i := range tail {
		// Exponential-ish: mostly microseconds, occasional huge outliers.
		tail[i] = int64(1000 * math.Exp(rng.Float64()*12))
	}
	constant := []int64{12345, 12345, 12345, 12345}
	tiny := []int64{0, 1, 2, 3, 63, 64, 65, 127, 128, 129}
	boundaries := make([]int64, 0, 200)
	for exp := uint(6); exp < 40; exp++ {
		boundaries = append(boundaries, int64(1)<<exp, (int64(1)<<exp)-1, (int64(1)<<exp)+1)
	}
	single := []int64{777}
	return [][]int64{uniform, tail, constant, tiny, boundaries, single}
}

var quantiles = []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}

// TestHistQuantileProperties: for random and adversarial inputs, quantiles
// of a registry histogram must be monotone (p50 <= p95 <= p99 <= p999),
// bounded by min/max, stable under sample reordering, and within the
// documented relative error of a naive sort-based reference.
func TestHistQuantileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for si, samples := range sampleSets(rng) {
		h := New().Histogram("lat.ns")
		for _, v := range samples {
			h.Observe(v)
		}
		v := h.Value()
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		if v.Count != int64(len(samples)) {
			t.Fatalf("set %d: count = %d, want %d", si, v.Count, len(samples))
		}
		if v.Min != sorted[0] || v.Max != sorted[len(sorted)-1] {
			t.Fatalf("set %d: min/max = %d/%d, want %d/%d",
				si, v.Min, v.Max, sorted[0], sorted[len(sorted)-1])
		}

		// Monotone in q, and bounded by [min, max].
		prev := int64(math.MinInt64)
		for _, q := range quantiles {
			got := v.Quantile(q)
			if got < prev {
				t.Fatalf("set %d: quantile(%v) = %d < previous %d (not monotone)", si, q, got, prev)
			}
			if got < v.Min || got > v.Max {
				t.Fatalf("set %d: quantile(%v) = %d outside [%d, %d]", si, q, got, v.Min, v.Max)
			}
			prev = got
		}
		p50, p95, p99, p999 := v.Quantile(.5), v.Quantile(.95), v.Quantile(.99), v.Quantile(.999)
		if !(p50 <= p95 && p95 <= p99 && p99 <= p999) {
			t.Fatalf("set %d: p50=%d p95=%d p99=%d p999=%d not monotone", si, p50, p95, p99, p999)
		}

		// Cross-check against the sort-based reference: the histogram reports
		// the bucket upper bound, so it may overshoot by at most one bucket
		// width (1/64 relative) and never undershoots below the reference's
		// bucket.
		for _, q := range quantiles {
			got, want := v.Quantile(q), naiveQuantile(sorted, q)
			hi := want + want/32 + 1
			if got < want-want/32-1 || got > hi {
				t.Fatalf("set %d: quantile(%v) = %d, naive reference %d (allowed up to %d)",
					si, q, got, want, hi)
			}
		}

		// Stability under reordering: shuffled input yields identical output.
		shuffled := append([]int64(nil), samples...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		h2 := New().Histogram("lat.ns")
		for _, s := range shuffled {
			h2.Observe(s)
		}
		v2 := h2.Value()
		for _, q := range quantiles {
			if v.Quantile(q) != v2.Quantile(q) {
				t.Fatalf("set %d: quantile(%v) differs after reorder: %d vs %d",
					si, q, v.Quantile(q), v2.Quantile(q))
			}
		}
		if v.Sum != v2.Sum || v.Min != v2.Min || v.Max != v2.Max {
			t.Fatalf("set %d: summary stats differ after reorder", si)
		}
	}
}

// TestHistMergeEquivalence: merging arbitrary partitions of the samples is
// identical to recording them all into one histogram — the property that
// makes per-goroutine histograms aggregate exactly.
func TestHistMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := make([]int64, 3000)
	for i := range samples {
		samples[i] = rng.Int63n(10_000_000)
	}
	var whole Histogram
	for _, v := range samples {
		whole.Observe(v)
	}
	// Random 4-way partition, merged in a scrambled order.
	var parts [4]Histogram
	for _, v := range samples {
		parts[rng.Intn(4)].Observe(v)
	}
	var merged Histogram
	for _, i := range rng.Perm(4) {
		merged.Merge(&parts[i])
	}
	mv, wv := merged.Value(), whole.Value()
	if mv.Count != wv.Count || mv.Min != wv.Min || mv.Max != wv.Max || mv.Sum != wv.Sum {
		t.Fatalf("merged summary differs: %d/%d/%d/%d vs %d/%d/%d/%d",
			mv.Count, mv.Min, mv.Max, mv.Sum, wv.Count, wv.Min, wv.Max, wv.Sum)
	}
	if mv.buckets != wv.buckets {
		t.Fatal("merged bucket counts differ")
	}
	// Merging an empty (or nil) histogram is a no-op.
	var empty Histogram
	whole.Merge(&empty)
	whole.Merge(nil)
	if v := whole.Value(); v != wv {
		t.Fatal("merging an empty histogram changed the target")
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	v := h.Value()
	if v.Quantile(0.5) != 0 || v.Count != 0 || v.Sum != 0 || v.Min != 0 || v.Max != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// Negative samples (clock skew) count in bucket 0 as zero but keep an
	// exact min, so the clamping is visible.
	h.Observe(-50)
	h.Observe(10)
	v = h.Value()
	if v.Min != -50 || v.Max != 10 || v.Sum != 10 {
		t.Fatalf("min/max/sum = %d/%d/%d, want -50/10/10", v.Min, v.Max, v.Sum)
	}
	if q := v.Quantile(0.25); q != -50 {
		t.Fatalf("low quantile must clamp to observed min, got %d", q)
	}
	// NaN and out-of-range q degrade to min/max rather than panicking.
	if v.Quantile(math.NaN()) != v.Min || v.Quantile(-1) != v.Min || v.Quantile(2) != v.Max {
		t.Fatal("degenerate q must clamp to min/max")
	}
}

// TestBucketMappingRoundTrip pins the bucket math: indexes are monotone
// non-decreasing in v, upper bounds invert the mapping, and the relative
// bucket width stays within QuantileError.
func TestBucketMappingRoundTrip(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 129, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		if idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		up := bucketUpper(idx)
		if up < v {
			t.Fatalf("bucketUpper(%d) = %d < %d", idx, up, v)
		}
		if bucketIndex(up) != idx {
			t.Fatalf("bucketUpper(%d) = %d maps to bucket %d", idx, up, bucketIndex(up))
		}
		if octave(up) != octave(v) {
			t.Fatalf("bucket %d straddles octaves: %d vs %d", idx, v, up)
		}
		if v >= histSub && float64(up-v) > float64(v)*QuantileError+1 {
			t.Fatalf("bucket width at %d too wide: upper %d", v, up)
		}
	}
}

// TestHistogramFootprint pins the lazy layout: an untouched histogram stays
// under 512 B, and each octave a sample lands in adds one chunk.
func TestHistogramFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Histogram{}); n > 512 {
		t.Fatalf("sizeof(Histogram) = %d B, want <= 512", n)
	}
	var h Histogram
	for _, v := range []int64{1, 5, 1000, 1001, 1 << 30} {
		h.Observe(v)
	}
	chunks := 0
	for i := range h.chunks {
		if h.chunks[i].Load() != nil {
			chunks++
		}
	}
	if chunks != 3 {
		t.Fatalf("%d chunks installed, want 3 (0..63, 1000's octave, 2^30's)", chunks)
	}
}

func TestHistogramMergeExemplars(t *testing.T) {
	var a, b Histogram
	a.ObserveExemplar(100, testTraceID(1))
	b.ObserveExemplar(110, testTraceID(2)) // same octave, larger value
	b.ObserveExemplar(9000, testTraceID(4))
	a.Merge(&b)
	ex := a.Exemplars()
	if len(ex) != 2 || ex[0].Value != 110 || ex[1].Value != 9000 {
		t.Fatalf("merged exemplars = %+v, want the worse per octave: 110 and 9000", ex)
	}
	// The smaller exemplar never replaces a larger one.
	var c Histogram
	c.ObserveExemplar(90, testTraceID(3))
	a.Merge(&c)
	if ex := a.Exemplars(); ex[0].Value != 110 {
		t.Fatalf("octave exemplar after merging a smaller one = %+v", ex[0])
	}
}

var exemplarTS = regexp.MustCompile(` \d+\.\d{9}\n`)

func goldenTID(b byte) (tid [16]byte) {
	tid[0], tid[15] = 0xab, b
	return
}

// TestPrometheusGolden pins the /metrics exposition of a fixed sample set
// byte for byte. The golden files were written by the earlier power-of-two
// bucket layout, so the test proves that summing the log-linear sub-buckets
// per octave reproduces the same le lines, _sum, _count and exemplar lines
// (exemplar timestamps are masked).
func TestPrometheusGolden(t *testing.T) {
	r := New()
	h := r.Histogram("lat.ns")
	rng := randv2.New(randv2.NewPCG(1, 2))
	for range 5000 {
		h.Observe(int64(rng.ExpFloat64() * 20000))
	}
	for _, v := range []int64{0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 1 << 20, 1<<40 + 7, 1<<62 + 5, -5} {
		h.Observe(v)
	}
	h.ObserveExemplar(300, goldenTID(1))
	h.ObserveExemplar(310, goldenTID(2))
	h.ObserveExemplar(70000, goldenTID(3))
	h.ObserveExemplar(0, goldenTID(5))
	r.Histogram("size.bytes").AddSamples(4096, 17)
	r.Histogram("empty.ns")
	hv := r.HistogramVec("q.ns", "conn")
	hv.With("1").Observe(12345)
	hv.With("2").ObserveExemplar(99, goldenTID(4))
	r.Counter("c").Add(3)

	for _, om := range []bool{false, true} {
		var b strings.Builder
		r.writePrometheus(&b, om)
		got := exemplarTS.ReplaceAllString(b.String(), " TS\n")
		name := "testdata/metrics.prom.golden"
		if om {
			name = "testdata/metrics.openmetrics.golden"
		}
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s mismatch:\n--- got\n%s\n--- want\n%s", name, got, want)
		}
	}
}

// BenchmarkObserve measures the plain recording path on one histogram, from
// one goroutine and from GOMAXPROCS goroutines at once.
func BenchmarkObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		h := New().Histogram("lat.ns")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i & 0xffff))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		h := New().Histogram("lat.ns")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := int64(0)
			for pb.Next() {
				i++
				h.Observe(i & 0xffff)
			}
		})
	})
}
