package sched

import (
	"slices"

	"repro/internal/dfg"
)

// Prefer compares two candidate operations during the merge-sort
// rescheduling of paper §4.3: a negative result schedules a before b, a
// positive result b before a. Implementations encode the
// controllability/observability enhancement strategy (rules SR1 and SR2);
// a zero result falls back to the smaller critical-path increase and then
// to node id.
type Prefer func(a, b dfg.NodeID) int

// OrderByStep appends to dst ops sorted by their control step in s (ties
// by id): the sequential execution order the operations already have on
// their shared module.
func OrderByStep(dst, ops []dfg.NodeID, s Schedule) []dfg.NodeID {
	n := len(dst)
	dst = append(dst, ops...)
	slices.SortFunc(dst[n:], func(a, b dfg.NodeID) int {
		if sa, sb := s.Step[a], s.Step[b]; sa != sb {
			return sa - sb
		}
		return int(a - b)
	})
	return dst
}

// MergeOrders appends to out the merge of the sequential execution orders
// of two modules being merged into a single total order, in the manner of
// a merge sort (paper §4.3.1): at each point the two sequence heads are
// compared with prefer and the preferred head is emitted. The relative
// order within each input sequence is preserved, because those operations
// already share a module.
func MergeOrders(out, seqA, seqB []dfg.NodeID, prefer Prefer) []dfg.NodeID {
	if prefer == nil {
		prefer = func(a, b dfg.NodeID) int { return int(a - b) }
	}
	i, j := 0, 0
	for i < len(seqA) && j < len(seqB) {
		c := prefer(seqA[i], seqB[j])
		if c == 0 {
			c = int(seqA[i] - seqB[j])
		}
		if c <= 0 {
			out = append(out, seqA[i])
			i++
		} else {
			out = append(out, seqB[j])
			j++
		}
	}
	out = append(out, seqA[i:]...)
	out = append(out, seqB[j:]...)
	return out
}

// ChainArcs appends to arcs the precedence arcs that realize a total
// execution order: one arc between each consecutive pair. Appending these
// to Problem.Extra forces the list scheduler to place the merged
// operations in distinct, ordered control steps.
func ChainArcs(arcs [][2]dfg.NodeID, order []dfg.NodeID) [][2]dfg.NodeID {
	for i := 0; i+1 < len(order); i++ {
		arcs = append(arcs, [2]dfg.NodeID{order[i], order[i+1]})
	}
	return arcs
}
