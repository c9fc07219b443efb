package main

import (
	"fmt"
	"reflect"

	"openmeta/internal/pbio"
)

// checkRecord reports how got differs from want: it must hold exactly
// want's fields, with key seqKey equal to seq and every other field equal
// to want's value. Floats compare by value, so a conversion that rounds
// or swaps bytes fails the check.
func checkRecord(want, got pbio.Record, seqKey string, seq interface{}) error {
	if len(got) != len(want) {
		return fmt.Errorf("record has %d fields, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("field %q missing", k)
		}
		if k == seqKey {
			w = seq
		}
		if !sameValue(w, g) {
			return fmt.Errorf("field %q = %v, want %v", k, g, w)
		}
	}
	return nil
}

func sameValue(want, got interface{}) bool {
	switch w := want.(type) {
	case int64:
		g, ok := got.(int64)
		return ok && g == w
	case uint64:
		g, ok := got.(uint64)
		return ok && g == w
	case float64:
		g, ok := got.(float64)
		return ok && g == w
	case string:
		g, ok := got.(string)
		return ok && g == w
	case []float64:
		g, ok := got.([]float64)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if g[i] != w[i] {
				return false
			}
		}
		return true
	case pbio.Record:
		g, ok := got.(pbio.Record)
		return ok && checkRecord(w, g, "", nil) == nil
	default:
		return reflect.DeepEqual(want, got)
	}
}

// sequencer checks that records arrive in publish order with no gaps or
// duplicates.
type sequencer struct {
	next uint64 // sequence number expected next
}

// accept classifies an arriving sequence number: missing is how many
// records before it never arrived; dup reports one already accounted for.
func (s *sequencer) accept(seq uint64) (missing uint64, dup bool) {
	if seq < s.next {
		return 0, true
	}
	missing = seq - s.next
	s.next = seq + 1
	return missing, false
}
