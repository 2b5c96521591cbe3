package report

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/store"
)

// checkpointConfig is a small, fast table configuration shared by the
// resume tests. Everything is seeded, so cells are deterministic.
func checkpointConfig(workers, par int) Config {
	cfg := DefaultConfig(21)
	cfg.Widths = []int{4}
	cfg.ATPGFor = func(width int) atpg.Config {
		c := atpg.DefaultConfig(21 + int64(width))
		c.SampleFaults = 120
		c.RandomBatches = 1
		c.Restarts = 1
		return c
	}
	cfg.Workers = workers
	cfg.Parallel = par
	return cfg
}

// TestKillAndResumeByteIdentical is the acceptance criterion: a sweep
// interrupted mid-run (journal holding only a prefix of its cells, plus
// the torn line a kill mid-write leaves) resumes to byte-identical table
// output, at workers 1 and 8.
func TestKillAndResumeByteIdentical(t *testing.T) {
	const bench = dfg.BenchEx
	ref, err := RunTableCtx(context.Background(), bench, checkpointConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	refText, refMd := ref.Render(), ref.Markdown()
	if strings.Contains(refText, "partial") {
		t.Fatalf("uninterrupted run has partial cells:\n%s", refText)
	}

	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	j, err := OpenJournal(full)
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkpointConfig(1, 1)
	cfg.Journal = j
	if _, err := RunTableCtx(context.Background(), bench, cfg); err != nil {
		t.Fatal(err)
	}
	if want := len(ref.Cells); j.Len() != want {
		t.Fatalf("journal holds %d cells, want %d", j.Len(), want)
	}
	j.Close()

	// Simulate the kill: a checkpoint holding only the first two cells,
	// with the torn tail of the record that was mid-write when the process
	// died still in its newest segment.
	mkKilled := func(t *testing.T, path string) {
		t.Helper()
		k, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range ref.Cells[:2] {
			if err := k.Record(bench, c); err != nil {
				t.Fatal(err)
			}
		}
		k.Close()
		segs, err := filepath.Glob(filepath.Join(path, "seg-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("checkpoint store has no segments (%v)", err)
		}
		sort.Strings(segs)
		f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// A record prefix: valid magic, then EOF where the body should be.
		if _, err := f.Write([]byte("hSg1\x14\x00\x00\x00")); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	for _, workers := range []int{1, 8} {
		truncated := filepath.Join(dir, fmt.Sprintf("killed-w%d.ckpt", workers))
		mkKilled(t, truncated)
		resumed, err := OpenJournal(truncated)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Len() != 2 {
			t.Fatalf("workers=%d: truncated journal loaded %d cells, want 2 (torn line dropped)", workers, resumed.Len())
		}
		cfg := checkpointConfig(workers, workers)
		cfg.Journal = resumed
		tbl, err := RunTableCtx(context.Background(), bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resumed.Close()
		if got := tbl.Render(); got != refText {
			t.Errorf("workers=%d: resumed render diverges:\n--- resumed ---\n%s\n--- reference ---\n%s", workers, got, refText)
		}
		if got := tbl.Markdown(); got != refMd {
			t.Errorf("workers=%d: resumed markdown diverges", workers)
		}
		// The resume must not have re-run the journaled prefix: its own
		// journal file gains only the missing cells.
		reopened, err := OpenJournal(truncated)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(ref.Cells); reopened.Len() != want {
			t.Errorf("workers=%d: resumed journal holds %d cells, want %d", workers, reopened.Len(), want)
		}
		reopened.Close()
	}
}

// TestCancelledSweepResumes: a sweep interrupted by context cancellation
// journals nothing partial; resuming with a live context reproduces the
// uninterrupted output byte-for-byte.
func TestCancelledSweepResumes(t *testing.T) {
	const bench = dfg.BenchEx
	ref, err := RunTableCtx(context.Background(), bench, checkpointConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkpointConfig(1, 1)
	cfg.Journal = j
	interrupted, err := RunTableCtx(ctx, bench, cfg)
	if err != nil {
		t.Fatalf("cancelled sweep errored instead of degrading: %v", err)
	}
	if interrupted.partialCount() != len(interrupted.Cells) {
		t.Errorf("cancelled sweep: %d of %d cells partial", interrupted.partialCount(), len(interrupted.Cells))
	}
	if !strings.Contains(interrupted.Render(), "partial") {
		t.Error("partial table renders without marker")
	}
	if j.Len() != 0 {
		t.Errorf("cancelled sweep journaled %d partial cells", j.Len())
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j2
	resumed, err := RunTableCtx(context.Background(), bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if resumed.Render() != ref.Render() {
		t.Errorf("resume after cancellation diverges:\n%s\nvs\n%s", resumed.Render(), ref.Render())
	}
}

// TestJournalRecordSemantics pins the journal contract: idempotent
// records, partial cells refused, lookups keyed by all three coordinates.
func TestJournalRecordSemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ckpt")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cell := Cell{Method: core.MethodOurs, Width: 8, Coverage: 0.5, Area: 123.25}
	if err := j.Record("ex", cell); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("ex", cell); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := j.Record("ex", Cell{Method: core.MethodOurs, Width: 8, Partial: true}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("journal holds %d cells, want 1", j.Len())
	}
	if _, ok := j.Lookup("ex", core.MethodOurs, 4); ok {
		t.Error("lookup matched the wrong width")
	}
	if _, ok := j.Lookup("dct", core.MethodOurs, 8); ok {
		t.Error("lookup matched the wrong benchmark")
	}
	got, ok := j.Lookup("ex", core.MethodOurs, 8)
	if !ok || got != cell {
		t.Fatalf("lookup returned %+v, want %+v", got, cell)
	}
	j.Close()
	// Reopen: the float fields must round-trip exactly through JSON.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, ok = j2.Lookup("ex", core.MethodOurs, 8)
	if !ok || got != cell {
		t.Fatalf("reloaded cell %+v, want %+v", got, cell)
	}
}

// TestJournalKeyCollision is the regression for the key-aliasing bug: a
// plain bench/method join made ("a/b", "c") and ("a", "b/c") the same
// cell, so recording one shadowed the other. Both coordinates must stay
// distinct, in memory and across a reopen.
func TestJournalKeyCollision(t *testing.T) {
	path := filepath.Join(t.TempDir(), "collide.ckpt")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	first := Cell{Method: "c", Width: 1, Coverage: 0.25}
	second := Cell{Method: "b/c", Width: 1, Coverage: 0.75}
	if err := j.Record("a/b", first); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("a", second); err != nil {
		t.Fatal(err)
	}
	check := func(j *Journal, when string) {
		t.Helper()
		if j.Len() != 2 {
			t.Fatalf("%s: %d cells, want 2 — the coordinates aliased", when, j.Len())
		}
		if got, ok := j.Lookup("a/b", "c", 1); !ok || got != first {
			t.Fatalf("%s: Lookup(a/b, c) = %+v, %v", when, got, ok)
		}
		if got, ok := j.Lookup("a", "b/c", 1); !ok || got != second {
			t.Fatalf("%s: Lookup(a, b/c) = %+v, %v", when, got, ok)
		}
	}
	check(j, "in memory")
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check(j2, "after reopen")
}

// TestOpenJournalRejectsRegularFile: a checkpoint path naming a regular
// file is not a store directory; OpenJournal must refuse it and leave the
// file byte-identical rather than adopt, rename or rewrite it.
func TestOpenJournalRejectsRegularFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "file.ckpt")
	want := []byte(`{"Bench":"ex","Cell":{"Method":"ours","Width":8}}` + "\n")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err := OpenJournal(path); err == nil {
		j.Close()
		t.Fatal("OpenJournal accepted a regular file")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("file gone after the refused open: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file changed by the refused open: %q, want %q", got, want)
	}
}

// TestJournalSharesDaemonStore: checkpoint cells co-exist with foreign
// records in one store directory — the journal ignores keys that are not
// its own, and its records leave the foreign ones intact.
func TestJournalSharesDaemonStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shared")
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A foreign record, as the daemon's result cache would write.
	h := core.NewHasher()
	h.Str("server.result")
	if err := st.Put(h.Sum(), []byte("\xc8\x00\x00\x00{}\n")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("foreign record loaded as a cell: %d", j.Len())
	}
	cell := Cell{Method: core.MethodOurs, Width: 8, Coverage: 1}
	if err := j.Record("ex", cell); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A reopened journal sees exactly its cell, and the store both records.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := j2.Lookup("ex", core.MethodOurs, 8); !ok || got != cell {
		t.Fatalf("shared-store cell: %+v, %v", got, ok)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Errorf("store holds %d records, want 2", st2.Len())
	}
}
