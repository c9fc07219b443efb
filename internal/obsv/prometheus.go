package obsv

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
)

// MetricsHandler serves the registry in the Prometheus text exposition
// format (version 0.0.4), mounted at /metrics by DebugMux. Counters and
// gauges map directly; a Histogram is exported with cumulative _bucket
// series whose le bounds are powers of two (octave i covers [2^(i-1), 2^i),
// so le="2^i - 1"; the finer sub-buckets are summed per octave), plus the usual
// _sum and _count. Snapshot functions are exported as gauges. Instrument
// names are sanitized for Prometheus ("." and "-" become "_").
//
// Clients that send an Accept header naming application/openmetrics-text get
// the OpenMetrics dialect instead: the same series, a trailing # EOF marker,
// and — only on histogram _bucket lines whose bucket holds an exemplar — the
// OpenMetrics exemplar suffix # {trace_id="<hex>"} <value> <unix seconds>,
// linking the bucket to a real traced request.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		openMetrics := strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text")
		if openMetrics {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		}
		var b strings.Builder
		r.writePrometheus(&b, openMetrics)
		if openMetrics {
			b.WriteString("# EOF\n")
		}
		_, _ = w.Write([]byte(b.String()))
	})
}

func (r *Registry) writePrometheus(b *strings.Builder, openMetrics bool) {
	if r == nil {
		return
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

	for _, n := range sortedKeys(counters) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s counter\n%s %d\n", pn, pn, counters[n].Load())
	}
	for _, n := range sortedKeys(counterVecs) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s counter\n", pn)
		for _, c := range counterVecs[n].v.children() {
			fmt.Fprintf(b, "%s%s %d\n", pn, c.labels.String(), c.inst.Load())
		}
	}
	for _, n := range sortedKeys(gauges) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", pn, pn, gauges[n].Load())
	}
	for _, n := range sortedKeys(gaugeVecs) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n", pn)
		for _, c := range gaugeVecs[n].v.children() {
			fmt.Fprintf(b, "%s%s %d\n", pn, c.labels.String(), c.inst.Load())
		}
	}
	for _, n := range sortedKeys(funcs) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", pn, pn, funcs[n]())
	}
	for _, n := range sortedKeys(hists) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s histogram\n", pn)
		writePromHistogram(b, pn, nil, hists[n], openMetrics)
	}
	for _, n := range sortedKeys(histVecs) {
		pn := promName(n)
		fmt.Fprintf(b, "# TYPE %s histogram\n", pn)
		for _, c := range histVecs[n].v.children() {
			writePromHistogram(b, pn, c.labels, c.inst, openMetrics)
		}
	}
}

// writePromHistogram emits one histogram series (optionally labeled) in the
// text exposition format: cumulative _bucket lines with power-of-two le
// bounds (the log-linear sub-buckets summed per octave) up to the highest
// populated octave, +Inf, then _sum and _count. In
// OpenMetrics mode, a bucket line whose bucket holds an exemplar carries the
// exemplar suffix (exemplars attach to _bucket series only).
func writePromHistogram(b *strings.Builder, pn string, labels LabelSet, h *Histogram, openMetrics bool) {
	v := h.Value()
	octaves := v.octaves()
	// prefix opens the label braces for bucket lines so le can be appended;
	// plain renders the labels alone for the _sum/_count lines.
	prefix, plain := "{", ""
	if len(labels) > 0 {
		plain = labels.String()
		prefix = plain[:len(plain)-1] + ","
	}
	last := 0
	for i, c := range octaves {
		if c > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += octaves[i]
		// Upper bound of octave i is 2^i - 1 (octave 0 holds zeros);
		// computed in floating point because bucket 64's bound overflows
		// int64.
		le := math.Ldexp(1, i) - 1
		fmt.Fprintf(b, "%s%sle=\"%g\"} %d", pn+"_bucket", prefix, le, cum)
		if openMetrics {
			if ex, ok := h.exemplarFor(i); ok {
				fmt.Fprintf(b, " # {trace_id=\"%s\"} %d %d.%09d",
					escapeLabelValue(ex.TraceID), ex.Value,
					ex.TimeUnixNS/1e9, ex.TimeUnixNS%1e9)
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s%sle=\"+Inf\"} %d\n", pn+"_bucket", prefix, v.Count)
	fmt.Fprintf(b, "%s_sum%s %d\n", pn, plain, v.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", pn, plain, v.Count)
}

// promName maps a registry instrument name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing anything else with "_".
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
