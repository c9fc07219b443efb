// Command ombench is the repository's end-to-end benchmark. It drives the
// real layers through their public functions — discovery, xmlschema and
// xmltext, core (xml2wire), pbio, eventbus and dcg — in closed loops from
// one process with at most two client connections, verifies every op, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run times each layer call and prints the per-layer ledger instead.
//
// Usage (from the repository root):
//
//	bash ombench/run.sh --workload relay --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one printed metric and its unit; BENCHMARK.json lists
// the same names and units.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_cpu_s", "op/cpu-s"},
	{"e2e_p50_us", "us"},
	{"e2e_p90_us", "us"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"pbio.encode_ns", "ns"},
	{"eventbus.publish_ns", "ns"},
	{"eventbus.deliver_ns", "ns"},
	{"dcg.convert_ns", "ns"},
	{"pbio.decode_ns", "ns"},
	{"discovery.schema_ns", "ns"},
	{"core.register_ns", "ns"},
	{"bench.verify_ns", "ns"},
	{"bench.op_ns", "ns"},
	{"bench.ledger_remainder_ns", "ns"},
	{"bench.trace_overhead_pct", "%"},
	{"proc.syscalls_per_op", "count"},
	{"proc.ctxsw_per_op", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_share", "%"},
	{"runtime.heap_retained_b_per_op", "B"},
	{"eventbus.formats_sent_per_op", "count"},
	{"eventbus.dropped", "count"},
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"relay", "hetero-bulk", "onboard"}

const (
	// setupRepeats is how many times a run sets up before measuring;
	// setup_s is the median of these and of the set-up of every segment.
	setupRepeats = 5
	// warmup lets caches fill and lazy set-up finish before the window.
	warmup = 500 * time.Millisecond
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombench:", err)
		os.Exit(2)
	}
	res, err := runBench(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("ombench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "relay", "workload: relay, hetero-bulk or onboard")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "relay":
		return newRelay(seed)
	case "hetero-bulk":
		return newHeteroBulk(seed)
	case "onboard":
		return newOnboard(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// runner sets a workload up and measures it, keeping every set-up time.
type runner struct {
	w      workload
	setups []float64 // seconds
}

func (r *runner) setup() error {
	start := time.Now()
	if err := r.w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return nil
}

// window accumulates the counts of a measured window's segments.
type window struct {
	tally         // pooled over the segments
	segs          []segment
	ctxsw, sysc   int64
	allocs, bytes uint64
	gcCPU, used   float64
	steal, ticks  uint64
	formatsSent   int64
	retained      int64 // live-heap growth over the segments, bytes
}

// segment is the end-to-end figures of one segment.
type segment struct{ opsPerCPU, p50, p90 float64 }

// measure runs the workload for d of window time in segments, each on a
// fresh rig. A window of 30 s has about 60, enough for medians to discount
// a burst of host contention. Each segment starts after a collection, and
// the live heap is read again after it, outside the window. With lg
// non-nil every second segment is traced into lg and counted in traced;
// the rest are counted in plain, so both see the same host conditions.
func (r *runner) measure(d time.Duration, lg *ledger) (plain, traced *window, err error) {
	plain, traced = new(window), new(window)
	seg := new(tally)
	// A traced window has at least one segment of each kind.
	for i, left := 0, d; left > 0 || (lg != nil && i < 2); i++ {
		if err := r.setup(); err != nil {
			return plain, traced, err
		}
		win, segLg := plain, (*ledger)(nil)
		if lg != nil && i%2 == 1 {
			win, segLg = traced, lg
		}
		*seg = tally{}
		before := liveHeap()
		s0 := takeSnapshot(r.w.broker())
		err := r.w.run(max(left, 0), seg, segLg)
		s1 := takeSnapshot(r.w.broker())
		after := liveHeap()
		win.merge(seg)
		win.segs = append(win.segs, segment{
			opsPerCPU: float64(seg.ok) / (s1.cpu - s0.cpu).Seconds(),
			p50:       seg.lat.quantile(0.50),
			p90:       seg.lat.quantile(0.90),
		})
		win.ctxsw += s1.ctxsw - s0.ctxsw
		win.sysc += s1.syscalls - s0.syscalls
		win.allocs += s1.allocs - s0.allocs
		win.bytes += s1.allocB - s0.allocB
		win.gcCPU += s1.gcCPU - s0.gcCPU
		win.used += s1.usedCPU - s0.usedCPU
		win.steal += s1.steal - s0.steal
		win.ticks += s1.ticks - s0.ticks
		win.formatsSent += s1.broker.FormatsSent - s0.broker.FormatsSent
		win.retained += int64(after) - int64(before)
		left -= s1.wall.Sub(s0.wall)
		if err != nil {
			return plain, traced, err
		}
	}
	return plain, traced, nil
}

func opsPerCPU(s segment) float64 { return s.opsPerCPU }

// segMedian returns the median over the window's segments of one figure.
// Taking the median of segments discounts a burst of host contention that
// hits a few of them.
func (w *window) segMedian(fig func(segment) float64) float64 {
	xs := make([]float64, len(w.segs))
	for i, s := range w.segs {
		xs[i] = fig(s)
	}
	return median(xs)
}

// perOp divides a window count by the window's ops.
func (w *window) perOp(x float64) float64 { return x / float64(w.ok+w.failed) }

// runBench sets up, warms up and measures one workload, printing the
// host stamp, every metric and the output check to out.
func runBench(cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r := &runner{w: w}
	for i := 0; i < setupRepeats; i++ {
		if err := r.setup(); err != nil {
			return nil, err
		}
	}
	res := &result{Metrics: make(map[string]metric)}
	warm, _, err := r.measure(warmup, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	wins := []*window{warm}

	span := time.Duration(cfg.seconds) * time.Second
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v} }
	if !cfg.trace {
		win, _, err := r.measure(span, nil)
		if err != nil {
			return nil, err
		}
		wins = append(wins, win)
		put("ops_per_cpu_s", win.segMedian(opsPerCPU))
		put("e2e_p50_us", win.segMedian(func(s segment) float64 { return s.p50 })/1e3)
		put("e2e_p90_us", win.segMedian(func(s segment) float64 { return s.p90 })/1e3)
		put("setup_s", median(r.setups))
		put("mem_peak_mb", peakRSSMB())
	} else {
		// Counts come from the untraced segments, timings from the traced.
		var lg ledger
		plain, traced, err := r.measure(span, &lg)
		if err != nil {
			return nil, err
		}
		wins = append(wins, plain, traced)
		n := float64(traced.ok + traced.failed)
		opNS := traced.lat.mean()
		for _, x := range []struct {
			name string
			ns   int64
		}{
			{"pbio.encode_ns", lg.encode},
			{"eventbus.publish_ns", lg.publish},
			{"eventbus.deliver_ns", lg.deliver},
			{"dcg.convert_ns", lg.convert},
			{"pbio.decode_ns", lg.decode},
			{"discovery.schema_ns", lg.schema},
			{"core.register_ns", lg.register},
			{"bench.verify_ns", lg.verify},
		} {
			put(x.name, float64(x.ns)/n)
		}
		put("bench.op_ns", opNS)
		put("bench.ledger_remainder_ns", opNS-float64(lg.sum())/n)
		put("bench.trace_overhead_pct", 100*(1-traced.segMedian(opsPerCPU)/plain.segMedian(opsPerCPU)))
		put("proc.syscalls_per_op", plain.perOp(float64(plain.sysc)))
		put("proc.ctxsw_per_op", plain.perOp(float64(plain.ctxsw)))
		put("runtime.allocs_per_op", plain.perOp(float64(plain.allocs)))
		put("runtime.alloc_bytes_per_op", plain.perOp(float64(plain.bytes)))
		put("runtime.gc_cpu_share", 100*plain.gcCPU/plain.used)
		put("runtime.heap_retained_b_per_op", plain.perOp(float64(plain.retained)))
		put("eventbus.formats_sent_per_op", plain.perOp(float64(plain.formatsSent)))
	}

	dropped := w.broker().Stats().Dropped // cumulative over every broker of the run
	var steal, ticks uint64
	for _, win := range wins {
		res.Attempted += win.ok + win.failed
		res.Failed += win.failed
		steal += win.steal
		ticks += win.ticks
	}
	if cfg.trace {
		put("eventbus.dropped", float64(dropped))
	}
	res.Correct = res.Failed == 0 && dropped == 0

	stealPct := 0.0
	if ticks > 0 {
		stealPct = 100 * float64(steal) / float64(ticks)
	}
	fmt.Fprintf(out, "ombench workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "host gomaxprocs=%d cpu=%q go=%s steal_pct=%.2f\n", runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), stealPct)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		m.Unit = d.unit
		res.Metrics[d.name] = m
		fmt.Fprintf(out, "%-32s %16.4f %s\n", d.name, m.Value, d.unit)
	}
	sort.Float64s(r.setups)
	fmt.Fprintf(out, "setups n=%d min=%.4f median=%.4f max=%.4f s\n", len(r.setups), r.setups[0], median(r.setups), r.setups[len(r.setups)-1])
	fmt.Fprintf(out, "check attempted=%d failed=%d dropped=%d correct=%v\n", res.Attempted, res.Failed, dropped, res.Correct)
	for _, win := range wins {
		if win.firstErr != nil {
			fmt.Fprintf(out, "check first failure: %v\n", win.firstErr)
			break
		}
	}
	return res, nil
}
