package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzStoreOpen replays arbitrary bytes as a segment file. Open never
// panics and never fails on them — only the filesystem can fail it —
// every record the store then serves is a CRC-valid record of the input,
// and a second Open of the healed directory serves the same record set.
func FuzzStoreOpen(f *testing.F) {
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	a := encodeRecord(fpOf("a"), []byte("alpha"))
	b := encodeRecord(fpOf("b"), []byte("beta"))
	rot := append([]byte(nil), b...)
	rot[len(rot)-1] ^= 0xff
	for _, seed := range [][]byte{
		nil,
		a,
		join(a, b),
		join(a, encodeRecord(fpOf("a"), []byte("alpha-2"))), // last write wins
		join(a, b[:len(b)/2]),                               // torn tail
		join(a, rot),                                        // bit rot in the last record
		join([]byte("garbage"), a, rot, b),                  // corrupt region between valid records
		join(magic[:], a),                                   // a bare marker before a record
		encodeRecord(fpOf("nest"), a),                       // a valid record inside a value
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		served := func() map[core.Fingerprint][]byte {
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open over %d segment bytes: %v", len(data), err)
			}
			defer s.Close()
			recs := map[core.Fingerprint][]byte{}
			s.Range(func(fp core.Fingerprint, val []byte) bool {
				recs[fp] = val
				return true
			})
			return recs
		}
		first := served()
		for fp, val := range first {
			if !bytes.Contains(data, encodeRecord(fp, val)) {
				t.Fatalf("served record %s (%d value bytes) is not a CRC-valid record of the input", fp, len(val))
			}
		}
		if second := served(); !reflect.DeepEqual(first, second) {
			t.Fatalf("reopen served %d records, first open %d", len(second), len(first))
		}
	})
}
