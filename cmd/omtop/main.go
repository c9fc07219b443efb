// Command omtop is a live terminal viewer for a daemon's /stats endpoint —
// top for the event backbone. Point it at any openmeta daemon started with
// -debug-addr (eventbusd, metaserver, ompub) and it polls the JSON snapshot,
// printing per-second rates for counters and p50/p95/p99 latencies for
// histograms:
//
//	omtop -addr 127.0.0.1:8781
//	omtop -addr http://127.0.0.1:8781 -interval 1s
//	omtop -addr 127.0.0.1:8781 -once        # one snapshot, no rates
//	omtop -addr 127.0.0.1:8781 -n 5         # five refreshes, then exit
//
// Counters display as rate-per-second computed from consecutive snapshots;
// gauges display as their current value; a histogram named h collapses the
// h.count/.sum/.p50/.p95/.p99 keys into one line with the event rate,
// quantiles and max. A counter that moved backwards between polls (the
// daemon restarted) shows "reset" for that interval instead of a bogus
// negative rate. When the daemon also serves /debug/history (started with
// -history-interval), each row gains a unicode sparkline of its recent
// samples from the daemon's own ring — trend context without omtop having
// to watch for long.
//
// With -formats the display pivots to per-format wire accounting instead:
// one row per format label found in the snapshot's labeled families
// (pbio.format.* and eventbus.wire.*), with encode/decode rates, bus
// record/byte rates, metadata bytes and the live NDR-to-XML-text expansion
// ratio.
//
// With -contention the display pivots to the runtime & contention view:
// every tracked lock's acquire count and wait/hold quantiles, plus — when
// the daemon runs with -contention-rate — the hottest mutex/block profile
// sites with per-refresh deltas. It reads /debug/contention per daemon, or
// /fleet/contention when -addr is an omcollect /fleet URL. Metric families
// and endpoints omtop doesn't recognize are skipped, not fatal, so it can
// watch daemons newer or older than itself.
//
// omtop also watches a whole fleet. -addr accepts a comma-separated list of
// debug addresses (optionally named, name=host:port), polled and merged
// client-side, or a single omcollect /fleet URL, in which case the collector
// does the merging. Either way the default view pivots to one column per
// instance:
//
//	omtop -addr pub=127.0.0.1:8781,broker=127.0.0.1:8782
//	omtop -addr http://127.0.0.1:8790/fleet
//
// Instances that stop answering keep their column (values freeze, the
// fleet.instance.up row drops to 0) instead of disappearing mid-watch.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"openmeta/internal/obsv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "omtop:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("omtop", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8781", "daemon debug address (host:port or http://host:port)")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	n := fs.Int("n", 0, "exit after n refreshes (0 = run until killed)")
	once := fs.Bool("once", false, "print one snapshot and exit (no rates)")
	clear := fs.Bool("clear", true, "clear the terminal between refreshes")
	formats := fs.Bool("formats", false, "show the per-format wire accounting view")
	contention := fs.Bool("contention", false, "show the tracked-lock and runtime contention view (/debug/contention, or /fleet/contention via omcollect)")
	showEx := fs.Bool("exemplars", false, "append each histogram's worst trace exemplar (short TraceID) to its row (single-daemon view)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets, err := parseAddrList(*addr)
	if err != nil {
		return err
	}
	fleet := len(targets) > 1 || strings.Contains(targets[0].base, "/fleet")

	if *contention {
		return runContention(targets, fleet, *interval, *n, *once, *clear, out)
	}

	view := render
	if *formats {
		view = renderFormats
	} else if fleet {
		view = renderFleet
	}
	var url, histURL string
	fetch := fetchStats
	switch {
	case !fleet:
		url = targets[0].base + "/stats"
		histURL = targets[0].base + "/debug/history"
	case len(targets) == 1:
		// One omcollect URL: the collector already merged and labeled.
		url = targets[0].base + "/stats"
		histURL = targets[0].base + "/history"
	default:
		// Several daemons: poll each and merge client-side, exactly the way
		// omcollect labels its /fleet/stats. url is only a display name.
		url = *addr
		fetch = func(string) (map[string]int64, error) { return fetchFleet(targets) }
	}

	// Exemplars only decorate the single-daemon view; the client-side fleet
	// merge has no single URL to re-fetch the rich shape from.
	getEx := func() exemplars { return nil }
	if *showEx && !fleet {
		getEx = func() exemplars { return fetchExemplars(url) }
	}

	prev, err := fetch(url)
	if err != nil {
		return err
	}
	if *once {
		fmt.Fprint(out, view(url, nil, prev, fetchHistory(histURL), 0, getEx()))
		return nil
	}
	for i := 0; *n == 0 || i < *n; i++ {
		time.Sleep(*interval)
		cur, err := fetch(url)
		if err != nil {
			return err
		}
		if *clear {
			fmt.Fprint(out, "\x1b[2J\x1b[H")
		}
		fmt.Fprint(out, view(url, prev, cur, fetchHistory(histURL), *interval, getEx()))
		prev = cur
	}
	return nil
}

func fetchStats(url string) (map[string]int64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return snap, nil
}

// history holds each /debug/history series' recent values, oldest first.
type history map[string][]int64

// fetchHistory pulls the daemon's sampled metric history. Best-effort: any
// failure (endpoint absent, history disabled, bad JSON) returns nil and the
// display simply has no sparklines.
func fetchHistory(url string) history {
	resp, err := http.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var body struct {
		Series map[string]struct {
			Points []struct {
				V int64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	h := make(history, len(body.Series))
	for name, s := range body.Series {
		vals := make([]int64, len(s.Points))
		for i, p := range s.Points {
			vals[i] = p.V
		}
		h[name] = vals
	}
	return h
}

// exemplars maps a histogram family (or labeled child) name to its bucket
// exemplars, lowest bucket first — the shape of /stats?exemplars=1.
type exemplars map[string][]obsv.Exemplar

// fetchExemplars pulls the daemon's trace exemplars. Best-effort like
// fetchHistory: a daemon predating exemplar support (or one started with
// -exemplars=false) simply yields rows without the ex column.
func fetchExemplars(url string) exemplars {
	resp, err := http.Get(url + "?exemplars=1")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var body obsv.StatsWithExemplars
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil
	}
	return body.Exemplars
}

// shortTrace abbreviates a 32-hex TraceID to its 16-hex prefix for display;
// the full ID is one curl of /stats?exemplars=1 away.
func shortTrace(tid string) string {
	if len(tid) > 16 {
		return tid[:16]
	}
	return tid
}

// sparkBlocks are the eight block heights a sparkline cell can take.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last width values as unicode blocks, scaled between
// the window's min and max (a flat non-zero series renders mid-height so it
// reads as "steady", an all-zero one as the floor).
func sparkline(vals []int64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		switch {
		case hi == lo && hi == 0:
			out[i] = sparkBlocks[0]
		case hi == lo:
			out[i] = sparkBlocks[len(sparkBlocks)/2]
		default:
			idx := int((v - lo) * int64(len(sparkBlocks)-1) / (hi - lo))
			out[i] = sparkBlocks[idx]
		}
	}
	return string(out)
}

// sparkWidth is how many history samples a row's sparkline shows.
const sparkWidth = 20

// rateCell formats the per-second rate column, or "reset" when the counter
// moved backwards between polls — the daemon restarted, so the delta for
// this interval is meaningless.
func rateCell(cur, prev int64, elapsed time.Duration) string {
	if cur < prev {
		return fmt.Sprintf("%12s", "reset")
	}
	return fmt.Sprintf("%10.1f/s", perSecond(cur-prev, elapsed))
}

// render formats one refresh. With prev == nil (the -once path) counters
// print as absolute values; otherwise they print as per-second rates over
// elapsed. hist (may be nil) adds a per-row sparkline of the daemon's own
// sampled history; ex (may be nil) adds each histogram family's worst trace
// exemplar as a short TraceID.
func render(source string, prev, cur map[string]int64, hist history, elapsed time.Duration, ex exemplars) string {
	hists := map[string]bool{}
	for k := range cur {
		if s, ok := obsv.HistogramSuffixOf(k, cur); ok {
			hists[strings.TrimSuffix(k, s)] = true
		}
	}

	var scalars []string
	for k := range cur {
		if _, ok := obsv.HistogramSuffixOf(k, cur); ok {
			continue
		}
		scalars = append(scalars, k)
	}
	sort.Strings(scalars)
	families := make([]string, 0, len(hists))
	for b := range hists {
		families = append(families, b)
	}
	sort.Strings(families)

	var b strings.Builder
	fmt.Fprintf(&b, "omtop  %s  %s\n\n", source, time.Now().Format("15:04:05"))
	for _, k := range scalars {
		spark := ""
		if s := sparkline(hist[k], sparkWidth); s != "" {
			spark = "  " + s
		}
		if prev == nil {
			fmt.Fprintf(&b, "%-44s %12d%s\n", k, cur[k], spark)
			continue
		}
		fmt.Fprintf(&b, "%-44s %12d %s%s\n", k, cur[k], rateCell(cur[k], prev[k], elapsed), spark)
	}
	if len(families) > 0 {
		fmt.Fprintf(&b, "\n%-44s %10s %10s %10s %10s %10s\n",
			"histogram", "events/s", "p50", "p95", "p99", "max")
		for _, base := range families {
			rate := fmt.Sprintf("%10.1f", float64(cur[base+".count"]))
			if prev != nil {
				rate = strings.TrimSuffix(rateCell(cur[base+".count"], prev[base+".count"], elapsed), "/s")
			}
			spark := ""
			// The daemon's history ring stores the histogram count as the
			// per-interval delta series <base>.count.
			if s := sparkline(hist[base+".count"], sparkWidth); s != "" {
				spark = "  " + s
			}
			exCell := ""
			// Bucket exemplars come lowest bucket first, so the last one is
			// the worst traced sample the family has seen.
			if exs := ex[base]; len(exs) > 0 {
				exCell = "  ex=" + shortTrace(exs[len(exs)-1].TraceID)
			}
			fmt.Fprintf(&b, "%-44s %10s %10d %10d %10d %10d%s%s\n",
				base, rate, cur[base+".p50"], cur[base+".p95"], cur[base+".p99"], cur[base+".max"], exCell, spark)
		}
	}
	return b.String()
}

// splitLabels splits a labeled snapshot key like `name{k="v",k2="v2"}` into
// the bare family name and its label values. Keys without a label block
// return ok = false.
func splitLabels(key string) (base string, labels map[string]string, ok bool) {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return "", nil, false
	}
	labels = make(map[string]string)
	for _, pair := range strings.Split(key[i+1:len(key)-1], ",") {
		eq := strings.Index(pair, `="`)
		if eq < 0 || !strings.HasSuffix(pair, `"`) {
			return "", nil, false
		}
		labels[pair[:eq]] = pair[eq+2 : len(pair)-1]
	}
	return key[:i], labels, true
}

// fmtRow aggregates one format's numbers across the labeled wire-accounting
// families. Eventbus values are summed across streams.
type fmtRow struct {
	encRecs, encBytes int64
	decRecs, decBytes int64
	busRecs, busBytes int64
	pbioMeta, busMeta int64
	expansionPct      int64
	hasExpansion      bool
}

func formatRows(snap map[string]int64) map[string]*fmtRow {
	rows := make(map[string]*fmtRow)
	for k, v := range snap {
		base, labels, ok := splitLabels(k)
		if !ok || labels["format"] == "" {
			continue
		}
		r := rows[labels["format"]]
		if r == nil {
			r = &fmtRow{}
			rows[labels["format"]] = r
		}
		switch base {
		case "pbio.format.encoded.records":
			r.encRecs += v
		case "pbio.format.encoded.bytes":
			r.encBytes += v
		case "pbio.format.decoded.records":
			r.decRecs += v
		case "pbio.format.decoded.bytes":
			r.decBytes += v
		case "pbio.format.meta.bytes":
			r.pbioMeta += v
		case "pbio.format.xml.expansion_pct":
			r.expansionPct = v
			r.hasExpansion = true
		case "eventbus.wire.records":
			r.busRecs += v
		case "eventbus.wire.bytes":
			r.busBytes += v
		case "eventbus.wire.meta.bytes":
			r.busMeta += v
		}
	}
	return rows
}

// renderFormats formats the per-format wire accounting view: one row per
// format label seen in the snapshot. With prev == nil counter columns show
// absolute totals; otherwise per-second rates over elapsed (clamped at 0
// across a daemon restart). Metadata bytes come from the codec-side family
// when present, falling back to the broker's wire.meta.bytes; the ndr:xml
// column is the live expansion-ratio gauge. The history parameter is
// unused — sparklines only appear in the default view.
func renderFormats(source string, prev, cur map[string]int64, _ history, elapsed time.Duration, _ exemplars) string {
	rows := formatRows(cur)
	var prevRows map[string]*fmtRow
	if prev != nil {
		prevRows = formatRows(prev)
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "omtop formats  %s  %s\n\n", source, time.Now().Format("15:04:05"))
	if len(names) == 0 {
		b.WriteString("no labeled per-format series in this snapshot\n")
		return b.String()
	}
	unit := "/s"
	if prevRows == nil {
		unit = " total"
	}
	fmt.Fprintf(&b, "%-24s %11s %11s %11s %11s %11s %11s %8s %8s\n", "format",
		"enc"+unit, "enc B"+unit, "dec"+unit, "dec B"+unit,
		"bus"+unit, "bus B"+unit, "meta B", "ndr:xml")
	for _, name := range names {
		r := rows[name]
		p := &fmtRow{}
		if prevRows != nil {
			if pr := prevRows[name]; pr != nil {
				p = pr
			}
		}
		val := func(cur, prev int64) float64 {
			if prevRows == nil {
				return float64(cur)
			}
			if cur < prev {
				return 0 // counter reset (daemon restart): no negative rates
			}
			return perSecond(cur-prev, elapsed)
		}
		meta := r.pbioMeta
		if meta == 0 {
			meta = r.busMeta
		}
		xml := "-"
		if r.hasExpansion {
			xml = fmt.Sprintf("%.2fx", float64(r.expansionPct)/100)
		}
		fmt.Fprintf(&b, "%-24s %11.1f %11.1f %11.1f %11.1f %11.1f %11.1f %8d %8s\n",
			name,
			val(r.encRecs, p.encRecs), val(r.encBytes, p.encBytes),
			val(r.decRecs, p.decRecs), val(r.decBytes, p.decBytes),
			val(r.busRecs, p.busRecs), val(r.busBytes, p.busBytes),
			meta, xml)
	}
	return b.String()
}

func perSecond(delta int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(delta) / elapsed.Seconds()
}

// addrTarget is one entry of the -addr list: a display name and the
// normalized http base URL of a debug listener (or omcollect /fleet root).
type addrTarget struct {
	name string
	base string
}

// parseAddrList splits the -addr flag: one or more comma-separated entries,
// each "host:port", "http://host:port[/fleet]" or "name=host:port".
func parseAddrList(s string) ([]addrTarget, error) {
	var out []addrTarget
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		t := addrTarget{base: part}
		if name, addr, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			if name == "" || addr == "" {
				return nil, fmt.Errorf("bad -addr entry %q (want name=host:port)", part)
			}
			t = addrTarget{name: name, base: addr}
		}
		if !strings.Contains(t.base, "://") {
			t.base = "http://" + t.base
		}
		t.base = strings.TrimRight(t.base, "/")
		if t.name == "" {
			t.name = strings.TrimPrefix(strings.TrimPrefix(t.base, "http://"), "https://")
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, errors.New("-addr is empty")
	}
	return out, nil
}

// fetchFleet polls every target's /stats and merges the snapshots under
// instance labels, mirroring omcollect's /fleet/stats shape: the same
// renderer handles both. A target that fails to answer contributes only
// fleet.instance.up = 0, keeping its column alive; only all targets failing
// is an error.
func fetchFleet(targets []addrTarget) (map[string]int64, error) {
	merged := make(map[string]int64)
	healthy := 0
	var lastErr error
	for _, t := range targets {
		snap, err := fetchStats(t.base + "/stats")
		up := int64(0)
		if err == nil {
			obsv.MergeLabeled(merged, snap, "instance", t.name)
			up = 1
			healthy++
		} else {
			lastErr = err
		}
		merged[obsv.AddLabel("fleet.instance.up", "", "instance", t.name)] = up
	}
	if healthy == 0 {
		return nil, fmt.Errorf("no fleet target answered: %w", lastErr)
	}
	return merged, nil
}

// stripInstance removes the instance label from a merged snapshot key,
// returning the de-labeled row key and the instance value ("" when the key
// carries no instance label). Histogram children keep their terminal suffix:
// `h{instance="x"}.count` becomes row `h.count` of instance x.
func stripInstance(key string) (row, instance string) {
	i := strings.IndexByte(key, '{')
	j := strings.IndexByte(key, '}')
	if i < 0 || j < i {
		return key, ""
	}
	var rest []string
	for _, pair := range strings.Split(key[i+1:j], ",") {
		if v, ok := strings.CutPrefix(pair, `instance="`); ok && strings.HasSuffix(v, `"`) {
			instance = strings.TrimSuffix(v, `"`)
			continue
		}
		rest = append(rest, pair)
	}
	row = key[:i]
	if len(rest) > 0 {
		row += "{" + strings.Join(rest, ",") + "}"
	}
	return row + key[j+1:], instance
}

// fleetCol is the width of one instance column in the fleet view.
const fleetCol = 22

// renderFleet formats one refresh of an instance-labeled merged snapshot
// (omcollect's /fleet/stats, or fetchFleet's client-side merge) as one
// column per instance. Scalar rows show the current value, plus its
// per-second rate once two snapshots exist; histogram families collapse to
// one row per base name showing events/s (or total count with -once) and
// p99. Cells for metrics an instance never reported show "-". The history
// parameter is unused — sparklines only appear in the single-daemon view.
func renderFleet(source string, prev, cur map[string]int64, _ history, elapsed time.Duration, _ exemplars) string {
	type perInst map[string]map[string]int64 // instance → row → value
	split := func(snap map[string]int64) perInst {
		out := perInst{}
		for k, v := range snap {
			row, inst := stripInstance(k)
			if out[inst] == nil {
				out[inst] = map[string]int64{}
			}
			out[inst][row] = v
		}
		return out
	}
	curBy := split(cur)
	var prevBy perInst
	if prev != nil {
		prevBy = split(prev)
	}

	instances := make([]string, 0, len(curBy))
	for inst := range curBy {
		instances = append(instances, inst)
	}
	sort.Strings(instances)

	// Row set: union across instances, histogram families collapsed.
	rowSet := map[string]bool{}
	famSet := map[string]bool{}
	for _, rows := range curBy {
		for row := range rows {
			if s, ok := obsv.HistogramSuffixOf(row, rows); ok {
				famSet[strings.TrimSuffix(row, s)] = true
				continue
			}
			rowSet[row] = true
		}
	}
	// A family complete on one instance may be partial on another; keep its
	// children out of the scalar rows either way.
	suffixes := obsv.HistogramSuffixes()
	isChild := func(row string) bool {
		for _, s := range suffixes {
			if famSet[strings.TrimSuffix(row, s)] && strings.HasSuffix(row, s) {
				return true
			}
		}
		return false
	}
	scalars := make([]string, 0, len(rowSet))
	for r := range rowSet {
		if !isChild(r) {
			scalars = append(scalars, r)
		}
	}
	sort.Strings(scalars)
	families := make([]string, 0, len(famSet))
	for f := range famSet {
		families = append(families, f)
	}
	sort.Strings(families)

	col := func(s string) string {
		if len(s) > fleetCol {
			s = s[:fleetCol]
		}
		return fmt.Sprintf("%*s", fleetCol, s)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "omtop fleet  %s  %s\n\n", source, time.Now().Format("15:04:05"))
	b.WriteString(fmt.Sprintf("%-40s", "metric"))
	for _, inst := range instances {
		name := inst
		if name == "" {
			name = "(unlabeled)"
		}
		b.WriteString(col(name))
	}
	b.WriteString("\n")
	for _, row := range scalars {
		fmt.Fprintf(&b, "%-40s", row)
		for _, inst := range instances {
			v, ok := curBy[inst][row]
			if !ok {
				b.WriteString(col("-"))
				continue
			}
			cell := fmt.Sprintf("%d", v)
			if prevBy != nil {
				if pv, had := prevBy[inst][row]; had {
					cell += " " + strings.TrimSpace(rateCell(v, pv, elapsed))
				}
			}
			b.WriteString(col(cell))
		}
		b.WriteString("\n")
	}
	if len(families) > 0 {
		header := "histogram (events/s, p99)"
		if prevBy == nil {
			header = "histogram (count, p99)" // -once shows totals, not rates
		}
		fmt.Fprintf(&b, "\n%-40s", header)
		for _, inst := range instances {
			name := inst
			if name == "" {
				name = "(unlabeled)"
			}
			b.WriteString(col(name))
		}
		b.WriteString("\n")
		for _, base := range families {
			fmt.Fprintf(&b, "%-40s", base)
			for _, inst := range instances {
				rows := curBy[inst]
				if _, ok := rows[base+".count"]; !ok {
					b.WriteString(col("-"))
					continue
				}
				count := fmt.Sprintf("%d", rows[base+".count"])
				if prevBy != nil {
					count = strings.TrimSpace(strings.TrimSuffix(
						rateCell(rows[base+".count"], prevBy[inst][base+".count"], elapsed), "/s"))
				}
				b.WriteString(col(fmt.Sprintf("%s, %d", count, rows[base+".p99"])))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
