// placer.go is the placement function: rendezvous (highest-random-weight)
// hashing of request fingerprints onto node IDs. Every request gets a
// deterministic total order over the current membership:
//
//   - the top-ranked node owns the fingerprint, so identical requests land
//     on the same shard and coalesce there;
//   - failover is "try the next rank", with no coordination state;
//   - membership change is minimally disruptive: a departing node only
//     moves the keys it owned, a joining node only claims the keys it now
//     wins — the property test in placer_test.go pins both.
package cluster

import (
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/gates"
)

// score is the rendezvous weight of (fingerprint, node): an FNV-64a hash
// of the pair pushed through a finalizing mix so nearby IDs decorrelate.
// Pure and process-independent — every coordinator ranks identically.
func score(fp core.Fingerprint, id string) uint64 {
	h := fnv.New64a()
	h.Write(fp[:])
	h.Write([]byte(id))
	return gates.SplitMix64(h.Sum64())
}

// Rank orders node IDs for a fingerprint, best first. Ties (possible only
// with duplicated IDs) break lexicographically so the order is total.
func Rank(fp core.Fingerprint, ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := score(fp, out[i]), score(fp, out[j])
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}
