package loadgen

import (
	"openmeta/internal/obsv"
	"openmeta/internal/trace"
)

// Autopsy is the run's slowest-request autopsy: the traced sample closest to
// the overall p99 (smallest traced latency at or above it, else the worst
// traced one), resolved through the tracer's span ring into its assembled
// publish→route→deliver tree with a per-stage self-time breakdown for that
// one request. Nil when tracing was disabled or no traced record survived to
// the report.
type Autopsy struct {
	TraceID string `json:"trace_id"`
	// LatencyNS is the exemplar's measured end-to-end latency; P99NS is the
	// run-wide p99 it stands in for.
	LatencyNS int64 `json:"latency_ns"`
	P99NS     int64 `json:"p99_ns"`
	// SpanCount/Orphans summarize the assembly. SpanCount 0 means the trace's
	// spans were already overwritten in the ring — the TraceID link is still
	// reported, the tree is not.
	SpanCount int           `json:"spans"`
	Orphans   int           `json:"orphans,omitempty"`
	Tree      []AutopsySpan `json:"tree,omitempty"`
	// Stages is the self-time breakdown of this one request (not the run
	// aggregate), largest share first, summing to ~100%.
	Stages []StageShare `json:"stages,omitempty"`
}

// AutopsySpan is one span of the autopsy tree, pre-order with Depth giving
// the indentation.
type AutopsySpan struct {
	Depth  int    `json:"depth"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	DurNS  int64  `json:"dur_ns"`
}

// buildAutopsy picks the p99 exemplar out of the merged latency histogram
// and assembles its trace from the run's span snapshot.
func buildAutopsy(h *obsv.Histogram, spans []trace.Span) *Autopsy {
	v := h.Value()
	if v.Count == 0 {
		return nil
	}
	p99 := v.Quantile(0.99)
	ex, ok := exemplarNear(h.Exemplars(), p99)
	if !ok {
		return nil
	}
	id, ok := trace.ParseTraceID(ex.TraceID)
	if !ok {
		return nil
	}
	a := &Autopsy{TraceID: ex.TraceID, LatencyNS: ex.Value, P99NS: p99}
	asm := trace.Assemble(id, trace.Tag("omload", spans))
	a.SpanCount = asm.Spans
	a.Orphans = asm.Orphans
	if asm.Spans == 0 {
		return a
	}
	var flat []trace.Span
	asm.Walk(func(n *trace.Node, depth int) {
		a.Tree = append(a.Tree, AutopsySpan{
			Depth: depth, Name: n.Name, Detail: n.Detail, DurNS: n.Dur.Nanoseconds(),
		})
		flat = append(flat, n.Span)
	})
	a.Stages = stageShares(flat)
	return a
}

// exemplarNear resolves a quantile value to a traced sample: the exemplar
// with the smallest value >= v, or failing that the largest one. ok is false
// when exs is empty.
func exemplarNear(exs []obsv.Exemplar, v int64) (best obsv.Exemplar, ok bool) {
	for _, e := range exs {
		switch {
		case !ok,
			e.Value >= v && (best.Value < v || e.Value < best.Value),
			e.Value < v && best.Value < v && e.Value > best.Value:
			best, ok = e, true
		}
	}
	return best, ok
}
