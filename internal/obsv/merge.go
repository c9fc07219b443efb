package obsv

import "strings"

// This file is the fleet-merge half of the labeled-vector machinery: a
// collector scraping several processes' /stats snapshots folds them into one
// map by attaching an extra label (conventionally instance="name") to every
// key, so the merged registry keeps the same flat shape tools already parse
// (omtop, histdb, scripts) while every series stays attributable.

// histogramSuffixes are the six keys Registry.Snapshot expands a histogram
// into. Their shared base name identifies a histogram family in a flat
// snapshot.
var histogramSuffixes = []string{".count", ".sum", ".max", ".p50", ".p95", ".p99"}

// HistogramSuffixes returns the snapshot key suffixes a histogram expands to
// (a copy; callers may not mutate the canonical list).
func HistogramSuffixes() []string {
	out := make([]string, len(histogramSuffixes))
	copy(out, histogramSuffixes)
	return out
}

// HistogramSuffixOf reports the histogram suffix carried by key, checking
// that every sibling key of the same family exists in the snapshot, so
// ".count" in an ordinary counter name is not mistaken for a histogram
// member. The family's base name is key without the suffix.
func HistogramSuffixOf(key string, snap map[string]int64) (string, bool) {
	for _, s := range histogramSuffixes {
		if !strings.HasSuffix(key, s) {
			continue
		}
		base := strings.TrimSuffix(key, s)
		all := true
		for _, s2 := range histogramSuffixes {
			if _, ok := snap[base+s2]; !ok {
				all = false
				break
			}
		}
		if all {
			return s, true
		}
	}
	return "", false
}

// AddLabel rewrites one snapshot key to carry one more label:
//
//	name                  -> name{k="v"}
//	name{a="b"}           -> name{a="b",k="v"}
//	name{a="b"}.count     -> name{a="b",k="v"}.count
//	hist.count            -> hist{k="v"}.count   (histSuffix = ".count")
//
// histSuffix is the histogram suffix the key carries ("" for none): labeled
// histogram children keep their suffix *after* the label block, matching
// Registry.Snapshot's rendering, so suffix-grouping tools keep working on
// merged snapshots. The label value is escaped with the same rules as
// LabelSet.String.
func AddLabel(key, histSuffix, labelKey, labelValue string) string {
	pair := labelKey + `="` + escapeLabelValue(labelValue) + `"`
	if i := strings.IndexByte(key, '{'); i >= 0 {
		if j := strings.LastIndexByte(key, '}'); j > i {
			return key[:j] + "," + pair + key[j:]
		}
	}
	if histSuffix != "" {
		base := strings.TrimSuffix(key, histSuffix)
		return base + "{" + pair + "}" + histSuffix
	}
	return key + "{" + pair + "}"
}

// MergeLabeled folds one instance's flat snapshot into dst, attaching
// labelKey="labelValue" to every key via AddLabel. Histogram families are
// detected with the six-sibling rule so their suffixes stay terminal. Keys
// that collide after rewriting (the same instance merged twice) are simply
// overwritten — the newest scrape wins.
func MergeLabeled(dst, snap map[string]int64, labelKey, labelValue string) {
	for k, v := range snap {
		suffix, _ := HistogramSuffixOf(k, snap)
		dst[AddLabel(k, suffix, labelKey, labelValue)] = v
	}
}

// MergeLabeledExemplars folds one instance's exemplar map (as produced by
// Registry.Exemplars) into dst, rewriting each histogram key with
// labelKey="labelValue" exactly like MergeLabeled rewrites its snapshot
// keys, so a merged exemplar stays attached to the same series name its
// histogram family carries in the merged snapshot. Exemplar keys never carry
// a histogram suffix (they name the histogram itself), so no suffix handling
// is needed. Colliding keys are overwritten — the newest scrape wins.
func MergeLabeledExemplars(dst map[string][]Exemplar, exemplars map[string][]Exemplar, labelKey, labelValue string) {
	for k, ex := range exemplars {
		dst[AddLabel(k, "", labelKey, labelValue)] = ex
	}
}
