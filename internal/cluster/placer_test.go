package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gates"
)

// testFingerprints derives n deterministic fingerprints from a seed via
// the splitmix64 mix, so the placement properties are checked over the
// same key population every run.
func testFingerprints(seed uint64, n int) []core.Fingerprint {
	out := make([]core.Fingerprint, n)
	x := seed
	next := func() uint64 {
		z := gates.SplitMix64(x)
		x += 0x9e3779b97f4a7c15
		return z
	}
	for i := range out {
		for w := 0; w < 2; w++ {
			v := next()
			for b := 0; b < 8; b++ {
				out[i][8*w+b] = byte(v >> (8 * b))
			}
		}
	}
	return out
}

func nodeIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%02d", i)
	}
	return ids
}

// TestScoreGolden pins the rendezvous weight itself: every coordinator,
// old or new, must rank a fingerprint's nodes identically, so the FNV-64a
// hash and its splitmix64 finalizer may never drift.
func TestScoreGolden(t *testing.T) {
	var seq core.Fingerprint
	for i := range seq {
		seq[i] = byte(i)
	}
	pool := testFingerprints(7, 3)
	for _, c := range []struct {
		fp   core.Fingerprint
		id   string
		want uint64
	}{
		{core.Fingerprint{}, "", 0x4193fd1b681dcd25},
		{core.Fingerprint{}, "node-00", 0xcf39a7eacbe54993},
		{seq, "", 0xa053264b206939e1},
		{seq, "node-00", 0x3ade33778009da6c},
		{pool[0], "127.0.0.1:8301", 0x96f30b252aeebbbf},
		{pool[1], "node-00", 0xb57fdff580ec27fd},
		{pool[2], "", 0xec6e0714b5c5739a},
	} {
		if got := score(c.fp, c.id); got != c.want {
			t.Errorf("score(%s, %q) = %#x, want %#x", c.fp, c.id, got, c.want)
		}
	}
}

// TestRendezvousDeterministicAndTotal: Rank is a pure function of
// (fingerprint, membership set) — input order is irrelevant, the order is
// total, and an empty membership ranks nothing.
func TestRendezvousDeterministicAndTotal(t *testing.T) {
	ids := nodeIDs(7)
	reversed := make([]string, len(ids))
	for i, id := range ids {
		reversed[len(ids)-1-i] = id
	}
	for _, fp := range testFingerprints(1, 200) {
		a, b := Rank(fp, ids), Rank(fp, reversed)
		if len(a) != len(ids) {
			t.Fatalf("Rank dropped nodes: %v", a)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Rank depends on input order: %v vs %v", a, b)
			}
		}
	}
	if got := Rank(testFingerprints(2, 1)[0], nil); len(got) != 0 {
		t.Errorf("Rank of empty membership = %v", got)
	}
}

// TestRendezvousStableUnderLeave: removing a node moves only the keys it
// owned — every other key keeps its owner. This is the property that
// makes mid-job failover cheap: the surviving shards' working sets (and
// their caches) are untouched.
func TestRendezvousStableUnderLeave(t *testing.T) {
	ids := nodeIDs(10)
	fps := testFingerprints(42, 2000)
	owners := make(map[core.Fingerprint]string, len(fps))
	for _, fp := range fps {
		owners[fp] = Rank(fp, ids)[0]
	}

	departed := "node-03"
	var survivors []string
	for _, id := range ids {
		if id != departed {
			survivors = append(survivors, id)
		}
	}
	moved := 0
	for _, fp := range fps {
		after := Rank(fp, survivors)[0]
		if owners[fp] == departed {
			moved++
			if after == departed {
				t.Fatalf("fingerprint still owned by departed node")
			}
			continue
		}
		if after != owners[fp] {
			t.Fatalf("key not owned by %s moved (%s -> %s)", departed, owners[fp], after)
		}
	}
	// The departed node owned roughly 1/10 of the keys; a wildly skewed
	// share would mean the hash is not spreading.
	if moved < len(fps)/20 || moved > len(fps)/4 {
		t.Errorf("departed node owned %d of %d keys, expected ~%d", moved, len(fps), len(fps)/10)
	}
}

// TestRendezvousStableUnderJoin: a joining node only claims keys — no key
// moves between pre-existing nodes.
func TestRendezvousStableUnderJoin(t *testing.T) {
	ids := nodeIDs(10)
	fps := testFingerprints(1998, 2000)
	owners := make(map[core.Fingerprint]string, len(fps))
	for _, fp := range fps {
		owners[fp] = Rank(fp, ids)[0]
	}
	joined := "node-99"
	grown := append(append([]string(nil), ids...), joined)
	claimed := 0
	for _, fp := range fps {
		after := Rank(fp, grown)[0]
		switch {
		case after == joined:
			claimed++
		case after != owners[fp]:
			t.Fatalf("join moved a key between old nodes (%s -> %s)", owners[fp], after)
		}
	}
	if claimed < len(fps)/22 || claimed > len(fps)/5 {
		t.Errorf("joining node claimed %d of %d keys, expected ~%d", claimed, len(fps), len(fps)/11)
	}
}

// TestRendezvousBalance: over many keys, every node owns a non-degenerate
// share (loose bounds — rendezvous hashing is balanced in expectation).
func TestRendezvousBalance(t *testing.T) {
	ids := nodeIDs(8)
	fps := testFingerprints(7, 4000)
	counts := map[string]int{}
	for _, fp := range fps {
		counts[Rank(fp, ids)[0]]++
	}
	want := len(fps) / len(ids)
	for _, id := range ids {
		if c := counts[id]; c < want/2 || c > want*2 {
			t.Errorf("node %s owns %d keys, expected within [%d,%d]", id, c, want/2, want*2)
		}
	}
}
