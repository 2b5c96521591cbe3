package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
)

func fpOf(parts ...string) core.Fingerprint {
	h := core.NewHasher()
	for _, p := range parts {
		h.Str(p)
	}
	return h.Sum()
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// segments returns the store's segment files, sorted.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	want := map[core.Fingerprint][]byte{}
	for i := 0; i < 50; i++ {
		fp := fpOf("key", fmt.Sprint(i))
		v := []byte(fmt.Sprintf("value-%d", i))
		if err := s.Put(fp, v); err != nil {
			t.Fatal(err)
		}
		want[fp] = v
	}
	// Overwrites: last write wins.
	over := fpOf("key", "7")
	if err := s.Put(over, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	want[over] = []byte("rewritten")
	check := func(s *Store, when string) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", when, s.Len(), len(want))
		}
		for fp, v := range want {
			got, ok := s.Get(fp)
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("%s: Get(%s) = %q, %v; want %q", when, fp, got, ok, v)
			}
		}
		if _, ok := s.Get(fpOf("absent")); ok {
			t.Fatalf("%s: absent key reported present", when)
		}
	}
	check(s, "before close")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	check(s, "after reopen")
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := s.Put(fpOf("k", fmt.Sprint(i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := segments(t, dir)[0]
	// A kill mid-write: a valid-looking header whose record extends past
	// EOF, i.e. a prefix of a record.
	torn := encodeRecord(fpOf("k", "torn"), bytes.Repeat([]byte("x"), 100))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = mustOpen(t, dir, Options{})
	if s.Len() != 3 {
		t.Fatalf("after torn tail: Len = %d, want 3", s.Len())
	}
	// The tail was resealed: a fresh put appends cleanly and survives.
	if err := s.Put(fpOf("k", "4"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 4 {
		t.Fatalf("after reseal+put: Len = %d, want 4", s.Len())
	}
	if v, ok := s.Get(fpOf("k", "4")); !ok || string(v) != "fresh" {
		t.Fatalf("post-reseal record lost: %q %v", v, ok)
	}
}

// TestOversizedCorruptRegionSkipped is the regression for the class of
// failure the old JSON-lines journal had (bufio.ErrTooLong): a corrupt
// region far larger than any scanner buffer must lose only itself.
func TestOversizedCorruptRegionSkipped(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(fpOf("before"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := segments(t, dir)[0]
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// 5 MiB of garbage — larger than the old 4 MiB line ceiling.
	if _, err := f.Write(bytes.Repeat([]byte{0xAB}, 5<<20)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The old bug aborted the whole load here; the store must open, keep
	// the valid prefix, truncate the garbage and accept new records.
	s = mustOpen(t, dir, Options{})
	if v, ok := s.Get(fpOf("before")); !ok || string(v) != "a" {
		t.Fatalf("record before corrupt region lost: %q %v", v, ok)
	}
	if err := s.Put(fpOf("after"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

// TestMidFileCorruptionSkipsOnlyThatRecord: flipping a byte inside one
// record drops that record (recomputed by the caller) while the records
// around it, including those AFTER the corruption, still load.
func TestMidFileCorruptionSkipsOnlyThatRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	marker := []byte("needle-to-corrupt-needle")
	if err := s.Put(fpOf("a"), []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fpOf("b"), marker); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fpOf("c"), []byte("gamma")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := segments(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, marker)
	if i < 0 {
		t.Fatal("marker value not found in segment")
	}
	data[i] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if _, ok := s.Get(fpOf("b")); ok {
		t.Fatal("corrupt record was trusted")
	}
	for name, want := range map[string]string{"a": "alpha", "c": "gamma"} {
		if v, ok := s.Get(fpOf(name)); !ok || string(v) != want {
			t.Fatalf("record %q around corruption lost: %q %v", name, v, ok)
		}
	}
	if st := s.Stats(); st.DroppedCorrupt == 0 {
		t.Error("corruption not counted in stats")
	}
}

// TestGetDetectsBitRot: corruption landing after open (disk rot) is
// caught by the per-read checksum — a miss, never a bad value.
func TestGetDetectsBitRot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	marker := []byte("rot-me-rot-me-rot-me")
	if err := s.Put(fpOf("rot"), marker); err != nil {
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
	if v, ok := s.Get(fpOf("rot")); ok {
		t.Fatalf("bit-rotted record returned as truth: %q", v)
	}
	if _, ok := s.Get(fpOf("rot")); ok {
		t.Fatal("dropped record resurrected")
	}
	if st := s.Stats(); st.DroppedCorrupt != 1 {
		t.Errorf("DroppedCorrupt = %d, want 1", st.DroppedCorrupt)
	}
}

// TestRotationAndDeadBytes: tiny segments force rotation, overwrites
// leave superseded records behind as dead bytes, and nothing rewrites a
// sealed segment — every live record and both byte counts survive a
// reopen unchanged.
func TestRotationAndDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	val := bytes.Repeat([]byte("v"), 40)
	// Overwrite the same 4 keys many times: most bytes die.
	for round := 0; round < 20; round++ {
		for k := 0; k < 4; k++ {
			if err := s.Put(fpOf("k", fmt.Sprint(k)), append(val, byte('0'+k), byte(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(segments(t, dir)); n < 3 {
		t.Fatalf("rotation produced only %d segment files", n)
	}
	check := func(s *Store, when string) Stats {
		t.Helper()
		st := s.Stats()
		if st.Records != 4 {
			t.Fatalf("%s: Records = %d, want 4", when, st.Records)
		}
		if st.DeadBytes <= st.LiveBytes {
			t.Fatalf("%s: 76 superseded records left only %d dead bytes (%d live)", when, st.DeadBytes, st.LiveBytes)
		}
		for k := 0; k < 4; k++ {
			want := append(bytes.Repeat([]byte("v"), 40), byte('0'+k), 19)
			if v, ok := s.Get(fpOf("k", fmt.Sprint(k))); !ok || !bytes.Equal(v, want) {
				t.Fatalf("%s: key %d = %q %v, want its newest value", when, k, v, ok)
			}
		}
		return st
	}
	pre := check(s, "before reopen")
	segs := len(segments(t, dir))
	s.Close()
	s = mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer s.Close()
	post := check(s, "after reopen")
	if post.LiveBytes != pre.LiveBytes || post.DeadBytes != pre.DeadBytes {
		t.Fatalf("reopen changed the byte counts: %+v -> %+v", pre, post)
	}
	if n := len(segments(t, dir)); n != segs {
		t.Fatalf("reopen changed the segment files: %d -> %d", segs, n)
	}
}

func TestRangeSortedAndBounded(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Put(fpOf("r", fmt.Sprint(i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []core.Fingerprint
	s.Range(func(fp core.Fingerprint, v []byte) bool {
		got = append(got, fp)
		return len(got) < 5
	})
	if len(got) != 5 {
		t.Fatalf("Range ignored early stop: %d", len(got))
	}
	var all []core.Fingerprint
	s.Range(func(fp core.Fingerprint, v []byte) bool {
		all = append(all, fp)
		return true
	})
	if len(all) != 20 {
		t.Fatalf("Range visited %d of 20", len(all))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return bytes.Compare(all[i][:], all[j][:]) < 0 }) {
		t.Error("Range order is not sorted (nondeterministic warm order)")
	}
}

// TestStraySegmentNamesIgnored: a backup or editor copy of a segment is
// not a segment. Were it adopted, it would sort last and become the
// active segment, and deleting the "backup" would lose every record
// acknowledged since. A leftover *.log.tmp is ignored the same way.
func TestStraySegmentNamesIgnored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Put(fpOf("before"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := segments(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var strays []string
	for _, name := range []string{"seg-00000001.log.bak", "seg-00000001.log~", "seg-1.log", "seg-00000001.log.tmp"} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		strays = append(strays, p)
	}
	s = mustOpen(t, dir, Options{})
	if err := s.Put(fpOf("after"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, p := range strays {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if s.Len() != 2 {
		t.Fatalf("acknowledged record lost with a stray copy: Len = %d", s.Len())
	}
}

func TestConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 4096})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				fp := fpOf("c", fmt.Sprint(g), fmt.Sprint(i))
				want := []byte(fmt.Sprintf("%d/%d", g, i))
				if err := s.Put(fp, want); err != nil {
					t.Errorf("put %d/%d: %v", g, i, err)
					return
				}
				if v, ok := s.Get(fp); !ok || !bytes.Equal(v, want) {
					t.Errorf("get %d/%d: %q %v", g, i, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*30 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*30)
	}
}

func TestValueTooLargeRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	huge := make([]byte, maxValueBytes+1)
	if err := s.Put(fpOf("huge"), huge); err != ErrValueTooLarge {
		t.Fatalf("oversized Put: %v", err)
	}
}

func TestClosedStoreRejects(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	s.Close()
	if err := s.Put(fpOf("x"), []byte("y")); err != ErrClosed {
		t.Fatalf("Put on closed store: %v", err)
	}
	if _, ok := s.Get(fpOf("x")); ok {
		t.Fatal("Get on closed store returned a value")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
