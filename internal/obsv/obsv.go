// Package obsv is the repo's observability layer: a lightweight,
// allocation-free counter/gauge/histogram registry built on atomics, with no
// dependencies outside the standard library.
//
// The paper's central claims are performance claims (Table 1: xml2wire
// registration ≈ 2x native PBIO, NDR ≫ XML-text per message), so the hot
// layers — pbio registration and codec paths, dcg plan compilation and
// caching, the event backbone, and metadata discovery — expose their costs
// here as named instruments. openmeta.Stats() snapshots the default
// registry, and DebugMux serves it over HTTP next to net/http/pprof so every
// later performance PR can prove its win against live counters.
//
// Hot-path contract: Counter.Add, Gauge.Set and Histogram.Observe take no
// locks and perform no allocation, except that a histogram allocates an
// octave's counters the first time a sample lands in it (guarded by
// testing.AllocsPerRun in the package tests). Histogram quantiles carry a
// relative error of at most QuantileError (1/64). Instrument lookup (Registry.Counter etc.) takes a mutex
// and may allocate; resolve instruments once at setup time and hold the
// pointers. All instrument methods are nil-receiver safe, so optional
// instrumentation can be left nil without branching at call sites.
package obsv

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is unusable;
// obtain counters from a Registry. A nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways (queue depths,
// cache sizes). A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// The histogram layout is log-linear: values below histSub get one exact
// bucket each, and every power of two above that is split into histSub
// equal-width sub-buckets. A sub-bucket is at most 1/histSub as wide as its
// lower bound, so a quantile reported as its bucket's upper bound is never
// below the true sample and at most QuantileError above it.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits // sub-buckets per octave
	// histChunks is the number of histSub-counter chunks covering every
	// non-negative int64: chunk 0 holds the exact values 0..histSub-1, chunk
	// c >= 1 the octave [2^(c+histSubBits-1), 2^(c+histSubBits)).
	histChunks  = 64 - histSubBits
	histBuckets = histChunks * histSub
	// histOctaves is one slot per power of two (bits.Len64 of a non-negative
	// int64): the unit of the Prometheus le bounds and of exemplar slots.
	histOctaves = 64
)

// QuantileError is the largest relative error of a reported quantile: the
// value is the upper bound of the bucket holding the ranked sample, so it
// lies in [x, x*(1+QuantileError)] for the true sample x.
const QuantileError = 1.0 / histSub

// bucketIndex maps a non-negative sample to its bucket.
func bucketIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	l := bits.Len64(uint64(v))
	sub := int(uint64(v)>>uint(l-histSubBits-1)) & (histSub - 1)
	return (l-histSubBits)*histSub + sub
}

// bucketUpper is the largest value that lands in bucket i.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	shift := uint(i/histSub - 1) // log2 of the bucket width
	lo := int64(histSub+i%histSub) << shift
	return lo + int64(1)<<shift - 1
}

// octave is the power-of-two slot of a non-negative value: v lies in
// [2^(octave-1), 2^octave), octave 0 holding zero.
func octave(v int64) int { return bits.Len64(uint64(v)) }

// Histogram records a distribution of int64 samples (nanoseconds, byte
// counts) in log-linear buckets with QuantileError relative error. Negative
// samples (clock skew) count as zero but keep an exact Min. The counters
// for one octave are allocated the first time a sample lands in it, so a
// histogram costs about 0.5 KB plus 0.5 KB per octave it has seen. A nil
// *Histogram is a no-op.
type Histogram struct {
	sum atomic.Int64
	max atomic.Int64
	// min holds the smallest raw sample as minKey(v): order-reversing, with
	// zero standing for "no sample yet", so lowering it is a CAS-raise.
	min    atomic.Uint64
	chunks [histChunks]atomic.Pointer[[histSub]atomic.Int64]
	// ex holds the per-octave exemplar slots (exemplar.go), allocated once
	// on the first traced observation so untraced histograms pay nothing.
	ex atomic.Pointer[[histOctaves]exemplarSlot]
}

// minKey maps v onto an unsigned key that decreases as v grows, with
// minKey(math.MaxInt64) == 0; v is int64(key ^ math.MaxInt64).
func minKey(v int64) uint64 { return uint64(v) ^ math.MaxInt64 }

// raise stores v in a if v is larger than a's current value.
func raise(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// lowerMin records v as the new minimum if it is smaller than the current one.
func (h *Histogram) lowerMin(v int64) {
	k := minKey(v)
	for {
		old := h.min.Load()
		if k <= old || h.min.CompareAndSwap(old, k) {
			return
		}
	}
}

// counter returns bucket i's count, installing its octave's chunk on first
// use; losing the install CAS means another observer installed it.
func (h *Histogram) counter(i int) *atomic.Int64 {
	p := &h.chunks[i/histSub]
	c := p.Load()
	if c == nil {
		c = new([histSub]atomic.Int64)
		if !p.CompareAndSwap(nil, c) {
			c = p.Load()
		}
	}
	return &c[i%histSub]
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) { h.AddSamples(v, 1) }

// AddSamples records n samples of value v in one update — the bulk path the
// runtime/metrics bridge uses to replay bucket-count deltas from the Go
// runtime's cumulative histograms. n <= 0 is a no-op.
func (h *Histogram) AddSamples(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	// min, max and sum land before the bucket count, so a reader that sees
	// the count also sees the extremes it must clamp quantiles to.
	h.lowerMin(v)
	if v < 0 {
		v = 0
	}
	raise(&h.max, v)
	h.sum.Add(v * n)
	h.counter(bucketIndex(v)).Add(n)
}

// Merge folds o's samples into h exactly, as if each had been observed on h,
// and keeps per octave the larger of the two exemplars.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	v := o.Value()
	if v.Count == 0 {
		return
	}
	h.lowerMin(v.Min)
	raise(&h.max, v.Max)
	h.sum.Add(v.Sum)
	for i, n := range v.buckets {
		if n > 0 {
			h.counter(i).Add(n)
		}
	}
	if src := o.ex.Load(); src != nil {
		dst := h.exemplarSlots()
		for i := range src {
			val, hi, lo, ts, ok := src[i].load()
			if cur, _, _, _, set := dst[i].load(); ok && (!set || val > cur) {
				dst[i].store(val, hi, lo, ts)
			}
		}
	}
}

// HistogramValue is the merged view of a histogram at snapshot time. Sum
// counts negative samples as zero; Min is the exact smallest sample.
type HistogramValue struct {
	Count, Sum, Min, Max int64
	// chunks totals each chunk's buckets, so a quantile search skips whole
	// octaves instead of walking every bucket.
	chunks  [histChunks]int64
	buckets [histBuckets]int64
}

// Value reads the histogram state.
func (h *Histogram) Value() (out HistogramValue) {
	if h == nil {
		return out
	}
	for c := range h.chunks {
		p := h.chunks[c].Load()
		if p == nil {
			continue
		}
		for s := range p {
			n := p[s].Load()
			out.buckets[c*histSub+s] = n
			out.chunks[c] += n
		}
		out.Count += out.chunks[c]
	}
	out.Sum = h.sum.Load()
	out.Max = h.max.Load()
	if out.Count > 0 {
		out.Min = int64(h.min.Load() ^ math.MaxInt64)
	}
	return out
}

// Quantile estimates the q-th quantile: the upper bound of the bucket
// holding the ceil(q*Count)-th smallest sample, clamped to [Min, Max]. The
// result is within QuantileError of the true sample, monotone in q, and 0
// for an empty histogram; q <= 0 (or NaN) reports Min and q >= 1 Max.
func (v *HistogramValue) Quantile(q float64) int64 {
	if v.Count == 0 {
		return 0
	}
	if math.IsNaN(q) || q <= 0 {
		return v.Min
	}
	if q >= 1 {
		return v.Max
	}
	rank := int64(math.Ceil(q * float64(v.Count)))
	var cum int64
	for c, n := range v.chunks {
		if cum+n < rank {
			cum += n
			continue
		}
		for i := c * histSub; ; i++ {
			if cum += v.buckets[i]; cum >= rank {
				if i == 0 {
					return v.Min // bucket 0 also holds negative samples
				}
				return min(max(bucketUpper(i), v.Min), v.Max)
			}
		}
	}
	return v.Max
}

// octaves sums the buckets per power of two: out[i] counts the samples in
// [2^(i-1), 2^i), out[0] the zeros.
func (v *HistogramValue) octaves() (out [histOctaves]int64) {
	for c, total := range v.chunks {
		if total == 0 {
			continue
		}
		for i := c * histSub; i < (c+1)*histSub; i++ {
			out[octave(bucketUpper(i))] += v.buckets[i]
		}
	}
	return out
}

// Registry is a named collection of instruments. Instruments are created on
// first lookup and live for the life of the registry; looking a name up
// again returns the same instrument, so counts survive component restarts.
// A nil *Registry hands out nil (no-op) instruments.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	funcs       map[string]func() int64
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
	locks       map[string]*lockFamily // tracked locks by full name (lock.go)
	gen         atomic.Uint64          // bumped on every instrument / labeled-child creation
	maxVec      atomic.Int64           // max children per labeled vector (0 = unlimited)
}

// DefaultMaxVecChildren bounds each labeled vector to this many children
// unless SetMaxLabelChildren overrides it — large enough for every legitimate
// stream × format product in the repo, small enough that a misbehaving label
// source cannot grow /metrics without bound.
const DefaultMaxVecChildren = 1024

// New returns an empty registry.
func New() *Registry {
	r := &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		hists:       make(map[string]*Histogram),
		funcs:       make(map[string]func() int64),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
		histVecs:    make(map[string]*HistogramVec),
	}
	r.maxVec.Store(DefaultMaxVecChildren)
	return r
}

// Generation returns a counter that increases whenever a new instrument (or
// a new child of a labeled vector) is created in the registry. Samplers that
// cache a flattened view of the instrument set (internal/histdb) compare
// generations to decide when to rebuild instead of re-walking the maps every
// tick.
func (r *Registry) Generation() uint64 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// SetMaxLabelChildren bounds every labeled vector in the registry to at most
// n children (n <= 0 removes the bound). Label combinations beyond the bound
// are clamped onto a shared overflow child and counted in the
// obsv.labels.dropped counter rather than allocated, so one misbehaving
// label source cannot grow snapshots and /metrics without bound.
func (r *Registry) SetMaxLabelChildren(n int) {
	if r == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	r.maxVec.Store(int64(n))
}

var defaultRegistry = New()

// Default returns the process-wide registry that openmeta.Stats() snapshots
// and that components use unless given a registry of their own.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.gen.Add(1)
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.gen.Add(1)
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if new.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
		r.gen.Add(1)
	}
	return h
}

// Func registers a read-only gauge computed at snapshot time (queue depths,
// cache sizes). Registering the same name again replaces the function. The
// function is called without registry locks held, so it may take its own.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
	r.gen.Add(1)
}

// Scope is a name-prefixed view of a registry: Scope("dcg").Counter("hits")
// is Registry.Counter("dcg.hits").
type Scope struct {
	r      *Registry
	prefix string
}

// Scope returns a view that prefixes every instrument name with prefix+".".
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix + "."} }

// Counter returns the scoped counter.
func (s Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + name) }

// Gauge returns the scoped gauge.
func (s Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.prefix + name) }

// Histogram returns the scoped histogram.
func (s Scope) Histogram(name string) *Histogram { return s.r.Histogram(s.prefix + name) }

// Func registers a scoped snapshot-time gauge.
func (s Scope) Func(name string, fn func() int64) { s.r.Func(s.prefix+name, fn) }

// Snapshot returns a point-in-time flattened view of every instrument.
// Counters and gauges appear under their names; a histogram named h expands
// to h.count, h.sum, h.max, h.p50, h.p95 and h.p99; snapshot functions appear
// under their names. Labeled instruments appear once per child under
// name{k="v",...} keys (a labeled histogram child expands to
// name{...}.count and friends, keeping the suffix terminal so tools that
// group histogram families by suffix keep working). Functions are evaluated
// with no registry locks held.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return map[string]int64{}
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	counterVecs := make(map[string]*CounterVec, len(r.counterVecs))
	for n, v := range r.counterVecs {
		counterVecs[n] = v
	}
	gaugeVecs := make(map[string]*GaugeVec, len(r.gaugeVecs))
	for n, v := range r.gaugeVecs {
		gaugeVecs[n] = v
	}
	histVecs := make(map[string]*HistogramVec, len(r.histVecs))
	for n, v := range r.histVecs {
		histVecs[n] = v
	}
	r.mu.RUnlock()

	out := make(map[string]int64, len(counters)+len(gauges)+6*len(hists)+len(funcs))
	for n, c := range counters {
		out[n] = c.Load()
	}
	for n, g := range gauges {
		out[n] = g.Load()
	}
	for n, h := range hists {
		expandHistogram(out, n, h)
	}
	for n, v := range counterVecs {
		for _, c := range v.v.children() {
			out[n+c.labels.String()] = c.inst.Load()
		}
	}
	for n, v := range gaugeVecs {
		for _, c := range v.v.children() {
			out[n+c.labels.String()] = c.inst.Load()
		}
	}
	for n, v := range histVecs {
		for _, c := range v.v.children() {
			expandHistogram(out, n+c.labels.String(), c.inst)
		}
	}
	for n, f := range funcs {
		out[n] = f()
	}
	return out
}

// expandHistogram flattens one histogram into the six derived snapshot keys.
func expandHistogram(out map[string]int64, name string, h *Histogram) {
	v := h.Value()
	out[name+".count"] = v.Count
	out[name+".sum"] = v.Sum
	out[name+".max"] = v.Max
	out[name+".p50"] = v.Quantile(0.50)
	out[name+".p95"] = v.Quantile(0.95)
	out[name+".p99"] = v.Quantile(0.99)
}

// Names returns the sorted instrument names of a snapshot — a convenience
// for stable diagnostic output.
func Names(snap map[string]int64) []string {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delta returns after-minus-before for every key in after. Keys missing from
// before count from zero; gauge-style keys can go negative.
func Delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for n, v := range after {
		out[n] = v - before[n]
	}
	return out
}

// InstrumentKind classifies an entry returned by Instruments.
type InstrumentKind uint8

const (
	KindCounter InstrumentKind = iota + 1
	KindGauge
	KindHistogram
	KindFunc
)

// InstrumentRef names one live instrument. Exactly one of Counter, Gauge,
// Histogram and Func is non-nil, matching Kind; children of labeled vectors
// appear as independent refs under their rendered name{k="v"} names.
type InstrumentRef struct {
	Name      string
	Kind      InstrumentKind
	Counter   *Counter
	Gauge     *Gauge
	Histogram *Histogram
	Func      func() int64
}

// Instruments lists every instrument currently registered, including labeled
// vector children. The refs point at the live instruments, so a sampler can
// enumerate once per Generation change and read the held pointers on every
// tick without touching registry locks (internal/histdb's sampling path).
func (r *Registry) Instruments() []InstrumentRef {
	if r == nil {
		return nil
	}
	// Two phases, like Snapshot: copy the maps under the registry lock, walk
	// vector children after releasing it — children() takes the vec lock,
	// which with() holds while creating the labels-dropped counter (which
	// takes the registry lock), so nesting the locks here would deadlock.
	r.mu.RLock()
	out := make([]InstrumentRef, 0,
		len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for n, c := range r.counters {
		out = append(out, InstrumentRef{Name: n, Kind: KindCounter, Counter: c})
	}
	for n, g := range r.gauges {
		out = append(out, InstrumentRef{Name: n, Kind: KindGauge, Gauge: g})
	}
	for n, h := range r.hists {
		out = append(out, InstrumentRef{Name: n, Kind: KindHistogram, Histogram: h})
	}
	for n, f := range r.funcs {
		out = append(out, InstrumentRef{Name: n, Kind: KindFunc, Func: f})
	}
	counterVecs := make(map[string]*CounterVec, len(r.counterVecs))
	for n, v := range r.counterVecs {
		counterVecs[n] = v
	}
	gaugeVecs := make(map[string]*GaugeVec, len(r.gaugeVecs))
	for n, v := range r.gaugeVecs {
		gaugeVecs[n] = v
	}
	histVecs := make(map[string]*HistogramVec, len(r.histVecs))
	for n, v := range r.histVecs {
		histVecs[n] = v
	}
	r.mu.RUnlock()
	for n, v := range counterVecs {
		for _, c := range v.v.children() {
			out = append(out, InstrumentRef{Name: n + c.labels.String(), Kind: KindCounter, Counter: c.inst})
		}
	}
	for n, v := range gaugeVecs {
		for _, c := range v.v.children() {
			out = append(out, InstrumentRef{Name: n + c.labels.String(), Kind: KindGauge, Gauge: c.inst})
		}
	}
	for n, v := range histVecs {
		for _, c := range v.v.children() {
			out = append(out, InstrumentRef{Name: n + c.labels.String(), Kind: KindHistogram, Histogram: c.inst})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
