package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestHasherMatchesFNV128a feeds seeded random sequences of U64, Int, Str
// and F64 writes to the inline hasher and, byte for byte, to
// hash/fnv.New128a: every fingerprint a store holds depends on the two
// agreeing.
func TestHasherMatchesFNV128a(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHasher()
		ref := fnv.New128a()
		var buf [8]byte
		refU64 := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			ref.Write(buf[:])
		}
		for n := rng.Intn(64); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint64()
				h.U64(v)
				refU64(v)
			case 1:
				v := int(rng.Int63()) - math.MaxInt64/2
				h.Int(v)
				refU64(uint64(int64(v)))
			case 2:
				b := make([]byte, rng.Intn(40))
				rng.Read(b)
				h.Str(string(b))
				refU64(uint64(len(b)))
				ref.Write(b)
			case 3:
				v := rng.NormFloat64() * 1e6
				h.F64(v)
				refU64(math.Float64bits(v))
			}
		}
		var want Fingerprint
		ref.Sum(want[:0])
		if got := h.Sum(); got != want {
			t.Fatalf("seed %d: inline hasher %s, hash/fnv %s", seed, got, want)
		}
	}
}
