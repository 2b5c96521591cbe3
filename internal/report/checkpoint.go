package report

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/store"
)

// Journal is the checkpoint behind hltsbench -store: one
// completed (benchmark, method, width) cell per record. Cells are
// journaled as they commit, so a killed sweep loses at most the cells
// still in flight; reopening the same path skips everything already
// recorded. Because every cell is a deterministic function of its
// (benchmark, method, width, seed, workers-invariant) inputs, a resumed
// run renders byte-identically to an uninterrupted one.
//
// The Journal is a thin adapter over internal/store — the same
// crash-safe, content-addressed segment log that backs the daemon's
// persistent result cache — so "cache", "resume" and future shard
// replication share one fsync/torn-write story. Each cell is keyed by
// the canonical fingerprint of its coordinates and valued with the JSON
// journalEntry; the in-memory done map is rebuilt from the store at open.
//
// Only complete cells are recorded: a Partial cell reflects an exhausted
// budget, and replaying it on resume would freeze the degradation into
// future runs. Partial cells are recomputed instead.
type Journal struct {
	mu   sync.Mutex
	st   *store.Store
	done map[string]Cell
}

// journalEntry is one checkpoint record's value.
type journalEntry struct {
	Bench string
	Cell  Cell
}

// journalKey is the in-memory map key. The %q quoting makes it
// unambiguous: ("a/b", "c") and ("a", "b/c") — which a plain
// bench/method join would alias — quote to distinct keys.
func journalKey(bench, method string, width int) string {
	return fmt.Sprintf("%q/%q/%d", bench, method, width)
}

// journalFP is the store key: the canonical length-prefixed fingerprint
// of a cell's coordinates (collision-free for the same reason %q is —
// core.Hasher.Str length-prefixes every string).
func journalFP(bench, method string, width int) core.Fingerprint {
	h := core.NewHasher()
	h.Str("report.journal.cell")
	h.Str(bench)
	h.Str(method)
	h.Int(width)
	return h.Sum()
}

// OpenJournal opens (creating if needed) the checkpoint store at path —
// a store directory — and loads every cell it holds. A path naming a
// regular file is an error and the file is left untouched. Corrupt or
// torn records, the signature of a kill mid-write, are skipped, not
// fatal: the affected cell is simply recomputed. Records that are not
// valid journal entries — foreign keys, or values corrupted beyond the
// store's own checksums — are skipped too.
func OpenJournal(path string) (*Journal, error) {
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("report: open journal: %w", err)
	}
	j := &Journal{st: st, done: map[string]Cell{}}
	st.Range(func(fp core.Fingerprint, val []byte) bool {
		var e journalEntry
		if err := json.Unmarshal(val, &e); err != nil {
			return true
		}
		if journalFP(e.Bench, e.Cell.Method, e.Cell.Width) != fp {
			return true // not one of ours
		}
		j.done[journalKey(e.Bench, e.Cell.Method, e.Cell.Width)] = e.Cell
		return true
	})
	return j, nil
}

// Lookup returns the journaled cell for (bench, method, width), if any.
func (j *Journal) Lookup(bench, method string, width int) (Cell, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	c, ok := j.done[journalKey(bench, method, width)]
	return c, ok
}

// Record journals a completed cell through the store, which flushes it
// to disk before acknowledging — a kill immediately afterwards cannot
// lose it. Partial cells are ignored (see the type comment). Recording
// is idempotent: a cell already journaled is not rewritten.
func (j *Journal) Record(bench string, c Cell) error {
	if c.Partial {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	key := journalKey(bench, c.Method, c.Width)
	if _, ok := j.done[key]; ok {
		return nil
	}
	val, err := json.Marshal(journalEntry{Bench: bench, Cell: c})
	if err != nil {
		return err
	}
	if err := j.st.Put(journalFP(bench, c.Method, c.Width), val); err != nil {
		return err
	}
	j.done[key] = c
	return nil
}

// Len returns the number of journaled cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Close closes the backing store.
func (j *Journal) Close() error { return j.st.Close() }
