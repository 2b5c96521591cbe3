package core

import (
	"context"
	"slices"
	"testing"
)

// byScore is the comparator the merger loop fully sorted each candidate
// list with before the lazy ranking: best score first, equal scores in
// the generated order, pair (i, j) ascending.
func byScore(x, y candidate) int {
	switch {
	case x.score > y.score:
		return -1
	case y.score > x.score:
		return +1
	case x.i != y.i:
		return x.i - y.i
	}
	return x.j - y.j
}

// TestRankingDrawsSortOrder checks every list rankCandidates ranks while
// every flow runs on the kernel sweep behaviours: drawn in blocks of k,
// the ranking yields exactly the slices.SortFunc order, equal scores
// included.
func TestRankingDrawsSortOrder(t *testing.T) {
	lists, ties := 0, 0
	var r ranking
	rankHook = func(list []candidate) {
		lists++
		want := slices.Clone(list)
		slices.SortFunc(want, byScore)
		for i := 1; i < len(want); i++ {
			if want[i].score == want[i-1].score {
				ties++
			}
		}
		k := 1 + lists%4
		r.heap = append(r.heap[:0], list...)
		r.order()
		var got []candidate
		for block := r.next(k); len(block) > 0; block = r.next(k) {
			got = append(got, block...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("list %d drawn in blocks of %d:\n got %v\nwant %v", lists, k, got, want)
		}
	}
	defer func() { rankHook = nil }()
	for _, b := range sweepBehaviours(t) {
		for _, method := range Methods() {
			par := DefaultParams(b.width)
			par.LoopSignal = b.g.Loop
			par.Workers = 1
			if _, err := RunCtx(context.Background(), method, b.g, par); err != nil {
				t.Fatalf("%s-%d/%s: %v", b.g.Name, b.width, method, err)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no ranked list held equal scores; the tie order is untested")
	}
	t.Logf("%d lists ranked, %d adjacent equal scores", lists, ties)
}
