// Tests of the replication support layer: the append-order cursor, the
// Since delta stream of record frames and DecodeFrames — the store-side
// contract anti-entropy is built on (DESIGN.md §4j). The properties that
// matter: every live record streams exactly once in log order, cursors
// survive batching, an epoch change (a reopen) restarts the stream
// instead of serving stale positions, a corrupt record is dropped by the
// same per-read check Get uses — never streamed to a peer — and a
// received frame whose key, value or length was altered fails to decode.
package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
)

// since calls Since and decodes the frames it returns, failing the test
// if any frame does not verify.
func since(t *testing.T, s *Store, c Cursor, maxRecords int, maxBytes int64) ([]Record, Cursor, bool) {
	t.Helper()
	frames, next, more := s.Since(c, maxRecords, maxBytes)
	recs, err := DecodeFrames(frames)
	if err != nil {
		t.Fatalf("Since returned a bad frame: %v", err)
	}
	return recs, next, more
}

// drain pulls Since to exhaustion in batches of batchRecs, returning
// every streamed record and the final cursor.
func drain(t *testing.T, s *Store, c Cursor, batchRecs int) ([]Record, Cursor) {
	t.Helper()
	var all []Record
	for i := 0; ; i++ {
		recs, next, more := since(t, s, c, batchRecs, 0)
		all = append(all, recs...)
		if !more && len(recs) == 0 {
			return all, next
		}
		if next == c && !more {
			return all, next
		}
		c = next
		if !more {
			return all, c
		}
		if i > 10_000 {
			t.Fatal("Since never drained")
		}
	}
}

func TestSinceStreamsAllRecordsInOrder(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer s.Close()
	want := map[core.Fingerprint]string{}
	for i := 0; i < 40; i++ {
		fp := fpOf("since", fmt.Sprint(i))
		v := fmt.Sprintf("value-%02d", i)
		if err := s.Put(fp, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[fp] = v
	}
	// Overwrite one: the superseded copy must not stream.
	over := fpOf("since", "7")
	if err := s.Put(over, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	want[over] = "rewritten"

	// Tiny batches: the cursor must stitch them seamlessly.
	got, final := drain(t, s, Cursor{Gen: s.Stats().Cursor.Gen}, 3)
	if len(got) != len(want) {
		t.Fatalf("streamed %d records, want %d", len(got), len(want))
	}
	seen := map[core.Fingerprint]bool{}
	for _, r := range got {
		if seen[r.FP] {
			t.Fatalf("record %s streamed twice", r.FP)
		}
		seen[r.FP] = true
		if want[r.FP] != string(r.Val) {
			t.Fatalf("record %s: got %q want %q", r.FP, r.Val, want[r.FP])
		}
	}
	if end := s.Stats().Cursor; final != end {
		t.Fatalf("drained cursor %+v != end-of-log %+v", final, end)
	}
	// Drained: the next call from the final cursor is an empty no-op.
	recs, _, more := since(t, s, final, 0, 0)
	if len(recs) != 0 || more {
		t.Fatalf("drained stream yielded %d records, more=%v", len(recs), more)
	}
}

func TestSinceResumesAcrossAppends(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if err := s.Put(fpOf("first"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	_, cur := drain(t, s, Cursor{}, 0)
	if err := s.Put(fpOf("second"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	recs, _, _ := since(t, s, cur, 0, 0)
	if len(recs) != 1 || recs[0].FP != fpOf("second") {
		t.Fatalf("incremental pull got %d records (want exactly the new one)", len(recs))
	}
}

// TestSinceZeroCursorAlwaysBeforeEverything: the zero Cursor has Gen 0,
// which no live store ever mints, so pulling from it streams the whole
// log — the bootstrap case of a peer that has never synced.
func TestSinceZeroCursorAlwaysBeforeEverything(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(fpOf("z", fmt.Sprint(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := drain(t, s, Cursor{}, 0); len(got) != 5 {
		t.Fatalf("zero cursor streamed %d records, want 5", len(got))
	}
}

// TestGenChangesInvalidateCursors: a reopen mints a new epoch, and a
// cursor from before the reopen restreams the full live set instead of
// trusting positions that a replaced directory may no longer hold.
func TestGenChangesInvalidateCursors(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	val := bytes.Repeat([]byte("p"), 40)
	for round := 0; round < 10; round++ {
		for k := 0; k < 3; k++ {
			if err := s.Put(fpOf("g", fmt.Sprint(k)), append(val, byte(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, cur := drain(t, s, Cursor{}, 0)
	if cur.Gen == 0 {
		t.Fatal("epoch is zero — indistinguishable from the zero cursor")
	}
	s.Close()

	s = mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer s.Close()
	if gen := s.Stats().Cursor.Gen; gen == cur.Gen {
		t.Fatalf("reopen reused epoch %d", gen)
	}
	// The stale cursor claims to be at the end; the epoch mismatch must
	// force a full restream of the live set.
	if got, _ := drain(t, s, cur, 0); len(got) != 3 {
		t.Fatalf("stale-epoch pull streamed %d records, want the full live set of 3", len(got))
	}
}

// TestSinceDropsCorruptRecords: bit rot landing between append and pull
// is caught by the per-read checksum — the corrupt record is counted and
// skipped, the records around it still stream.
func TestSinceDropsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	marker := []byte("stream-rot-stream-rot")
	if err := s.Put(fpOf("s", "a"), []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fpOf("s", "b"), marker); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fpOf("s", "c"), []byte("gamma")); err != nil {
		t.Fatal(err)
	}
	seg := segments(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, marker)
	if i < 0 {
		t.Fatal("marker not found")
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{data[i] ^ 0xff}, int64(i)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, _ := drain(t, s, Cursor{}, 0)
	for _, r := range got {
		if r.FP == fpOf("s", "b") {
			t.Fatal("corrupt record streamed to a peer")
		}
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d records around the corruption, want 2", len(got))
	}
	if st := s.Stats(); st.DroppedCorrupt == 0 {
		t.Error("stream-time corruption not counted in Stats")
	}
}

// TestStatsCountsTornReseal: a torn tail (kill mid-append) is resealed
// at the next open and surfaces in Stats().TornResealed — the
// observability satellite of the corruption counters.
func TestStatsCountsTornReseal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(fpOf("t", "keep"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().TornResealed; got != 0 {
		t.Fatalf("fresh store reports %d reseals", got)
	}
	s.Close()
	seg := segments(t, dir)[0]
	torn := encodeRecord(fpOf("t", "torn"), bytes.Repeat([]byte("x"), 64))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	st := s.Stats()
	if st.TornResealed != 1 {
		t.Errorf("TornResealed = %d, want 1", st.TornResealed)
	}
	if st.Records != 1 {
		t.Errorf("Records = %d, want 1", st.Records)
	}
	if v, ok := s.Get(fpOf("t", "keep")); !ok || string(v) != "kept" {
		t.Errorf("record before the torn tail lost: %q %v", v, ok)
	}
}

// TestSinceRespectsByteBudget: a batch stops at the byte cap but always
// makes progress — at least one record per call while any is pending.
func TestSinceRespectsByteBudget(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	big := bytes.Repeat([]byte("B"), 512)
	for i := 0; i < 6; i++ {
		if err := s.Put(fpOf("big", fmt.Sprint(i)), big); err != nil {
			t.Fatal(err)
		}
	}
	c := Cursor{}
	total := 0
	for rounds := 0; ; rounds++ {
		recs, next, more := since(t, s, c, 0, 600)
		if len(recs) == 0 && !more {
			break
		}
		if len(recs) == 0 {
			t.Fatal("byte-capped batch made no progress")
		}
		if len(recs) > 2 { // 512-byte values under a 600-byte budget
			t.Fatalf("byte cap ignored: %d records in one batch", len(recs))
		}
		total += len(recs)
		c = next
		if !more {
			break
		}
		if rounds > 100 {
			t.Fatal("never drained")
		}
	}
	if total != 6 {
		t.Fatalf("streamed %d records under the byte budget, want 6", total)
	}
}

// TestDecodeFramesRejectsAlteredFrames: the frame checksum covers the
// key as well as the value, so a frame whose key bytes, value bytes or
// length were altered in transit fails DecodeFrames — it is never
// stored, under its own name or another. The frames before it still
// decode.
func TestDecodeFramesRejectsAlteredFrames(t *testing.T) {
	good := encodeRecord(fpOf("good"), []byte("first"))
	rec := encodeRecord(fpOf("right"), []byte("payload"))
	keyAt := headerLen
	valAt := headerLen + keyLen
	for name, alter := range map[string]func([]byte) []byte{
		"key":       func(b []byte) []byte { other := fpOf("wrong"); copy(b[keyAt:], other[:]); return b },
		"value":     func(b []byte) []byte { b[valAt] ^= 0x01; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
	} {
		bad := alter(append([]byte(nil), rec...))
		recs, err := DecodeFrames(append(append([]byte(nil), good...), bad...))
		if err == nil {
			t.Errorf("%s: an altered frame decoded", name)
		}
		if len(recs) != 1 || recs[0].FP != fpOf("good") || string(recs[0].Val) != "first" {
			t.Errorf("%s: decoded %d records before the bad frame, want the one good record", name, len(recs))
		}
	}
	if recs, err := DecodeFrames(append(good, rec...)); err != nil || len(recs) != 2 {
		t.Fatalf("intact frames: %d records, %v", len(recs), err)
	}
}
