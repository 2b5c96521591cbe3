// Package store is the durable half of the pipeline's content-addressed
// memoization story: a crash-safe, append-only segment log mapping
// core.Fingerprint keys to opaque encoded results. Synthesis is
// deterministic and fingerprint-keyed, so a record written once is valid
// forever — the store is a plain append-only log with last-write-wins
// replay, and nothing ever rewrites an acknowledged record.
//
// One storage layer backs the daemon's result cache (internal/server
// warms its LRU from the store at boot and writes every completed result
// through) and the cluster's anti-entropy replication (peers pull each
// other's record frames through Since, exactly as they lie on disk, and
// check them with DecodeFrames) — so "cache" and "replicate" share one
// record format, one checksum and one frame parser.
//
// On-disk format. A store is a directory of numbered segment files
// (seg-00000001.log, ...); the highest-numbered segment is the active
// one, all others are sealed. A segment is a sequence of records:
//
//	magic   [4]byte  "hSg1"
//	keyLen  uint32   little-endian (always 16 today; kept for evolution)
//	valLen  uint32   little-endian
//	crc     uint32   CRC-32C over (keyLen‖valLen‖key‖value)
//	key     [keyLen]byte
//	value   [valLen]byte
//
// Crash safety and recovery. Put appends one record and fsyncs before
// acknowledging; a record is indexed (and reported by Get) only after the
// fsync returns. Open replays every segment in id order: a record whose
// checksum fails, whose lengths are insane, or which extends past EOF is
// skipped by scanning forward for the next magic marker — so a corrupt
// region of ANY size (a torn write, bit rot, an interleaved partial
// record) loses at most the records it overlaps, never the file. Trailing
// garbage after the last valid record — the signature of a kill mid-write
// — is truncated away on open, resealing the segment for clean appends.
// A Put that failed mid-write marks the store torn; the next Put
// truncates back to the last acknowledged byte before writing, so an
// acknowledged record can never be damaged by a later failed one.
//
// Rotation. When the active segment exceeds Options.MaxSegmentBytes it is
// sealed and a new one started; sealed segments are never rewritten.
// Superseded records (a rare race between a job and a coalesced retry)
// and corrupt regions stay on disk and are counted in Stats.DeadBytes.
// Open adopts only files named exactly seg-%08d.log, so a stray copy such
// as seg-00000001.log.bak never becomes the active segment.
//
// Chaos. The store.write / store.sync / store.torn / store.corrupt sites
// (internal/chaos) inject a failed append, a failed fsync (bytes landed,
// durability unconfirmed — the record is NOT acknowledged), a torn write
// (a prefix of the record on disk), and bit rot (the record lands with a
// flipped byte, detectable only by checksum). The sweep proves corrupt
// records are skipped and recomputed, never trusted or fatal.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

var magic = [4]byte{'h', 'S', 'g', '1'}

const (
	headerLen = 16
	keyLen    = len(core.Fingerprint{})
	// maxValueBytes is a sanity bound on a single record's value; a parsed
	// length beyond it is treated as corruption, not an allocation request.
	maxValueBytes = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrValueTooLarge rejects a Put whose value exceeds the format's sanity
// bound.
var ErrValueTooLarge = errors.New("store: value exceeds 1 GiB record bound")

// Options tunes a store; the zero value gives sensible defaults.
type Options struct {
	// MaxSegmentBytes seals the active segment once it reaches this size
	// (default 64 MiB).
	MaxSegmentBytes int64
}

// Stats is a point-in-time summary of the store's physical state.
type Stats struct {
	// Records is the number of live (indexed, retrievable) records.
	Records int
	// LiveBytes is the on-disk footprint of the live records.
	LiveBytes int64
	// DeadBytes counts superseded records, corrupt regions and injected
	// bit rot — bytes no live record covers.
	DeadBytes int64
	// DroppedCorrupt counts records rejected by checksum or framing —
	// at open (skipped during replay) or at Get (bit rot detected on
	// read). Each was treated as a miss, never returned to a caller.
	DroppedCorrupt int64
	// TornResealed counts tail reseals: truncations of a torn partial
	// record, either at open (trailing garbage after the last valid
	// record) or before the append following a failed Put.
	TornResealed int64
	// Cursor is the end-of-log position (see Since); replication carries
	// it in heartbeats so peers can observe lag.
	Cursor Cursor
}

// Cursor identifies a position in the store's append order, used by
// Since for incremental replication. Gen is the indexing epoch, minted
// once per Open: a reopen (perhaps of a replaced directory) invalidates
// any (Seg, Off) held by a reader, and Since restarts a cursor of an
// unfamiliar Gen from the beginning, which is safe because applies are
// idempotent (records are content-addressed and values are deterministic
// functions of their key).
type Cursor struct {
	Gen uint64 `json:"gen"`
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Record is one (fingerprint, value) pair decoded from a record frame.
type Record struct {
	FP  core.Fingerprint
	Val []byte
}

type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64 // end of the last valid record (appends go here)
}

type entry struct {
	seg   *segment
	off   int64 // record start
	total int64
}

// Store is the content-addressed result store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	segs    []*segment // ascending id; last is active
	index   map[core.Fingerprint]entry
	live    int64
	dead    int64
	drops   int64
	reseals int64
	gen     uint64 // indexing epoch, minted by Open
	torn    bool   // a failed append may have left a partial record on disk
	closed  bool
}

// genCounter decorrelates epochs minted within one nanosecond tick.
var genCounter atomic.Uint64

// newGen mints an indexing epoch: unique across reopens of the same
// directory with overwhelming probability, never zero (so a zero-valued
// Cursor is always "before everything").
func newGen() uint64 {
	x := uint64(time.Now().UnixNano()) + genCounter.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	if x == 0 {
		x = 1
	}
	return x
}

// Open opens (creating if needed) the store directory at dir, replays
// every segment — skipping corrupt records and truncating torn tails —
// and positions the highest segment for appending.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts, index: map[core.Fingerprint]entry{}, gen: newGen()}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		// Only the exact name createSegment writes is a segment: Sscanf
		// accepts any spelling of the id, so seg-1.log would otherwise
		// open as a second copy of segment 1.
		var id uint64
		base := filepath.Base(name)
		if _, err := fmt.Sscanf(base, "seg-%d.log", &id); err != nil || base != segmentName(id) {
			continue
		}
		seg, err := s.openSegment(name, id)
		if err != nil {
			s.closeAll()
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	if len(s.segs) == 0 {
		seg, err := s.createSegment(1)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, seg)
	}
	// Replay-time live/dead bookkeeping through indexPut over-counts
	// (a superseded record is both "not live in its segment" and
	// dead-pooled on override); the exact figure is simply every valid
	// byte not covered by a live record — corrupt regions included.
	var total int64
	for _, seg := range s.segs {
		total += seg.size
	}
	s.dead = total - s.live
	// Make the directory entries themselves durable: a crash immediately
	// after Open must not lose a freshly created (or freshly resealed)
	// segment name even though its bytes synced.
	if err := syncDir(dir); err != nil {
		s.closeAll()
		return nil, err
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		s.closeAll()
		return nil, err
	}
	return s, nil
}

// openSegment reads one existing segment, indexes its valid records and
// heals its tail.
func (s *Store) openSegment(path string, id uint64) (*segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{id: id, path: path, f: f}
	s.scan(data, seg)
	// Reseal: drop trailing garbage (a torn final record) so the next
	// append starts at a clean boundary instead of concatenating onto the
	// fragment. Mid-file corruption stays put — it is dead bytes, already
	// skipped by the replay.
	if int64(len(data)) > seg.size {
		if err := f.Truncate(seg.size); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		s.reseals++
	}
	return seg, nil
}

// scan replays one segment image, indexing every valid record (later
// records win) and resyncing past corrupt regions via the magic marker.
// seg.size is left at the end of the last valid record.
func (s *Store) scan(data []byte, seg *segment) {
	i := int64(0)
	n := int64(len(data))
	for i+headerLen <= n {
		fp, _, total, err := parseFrame(data[i:])
		if err != nil {
			// Bad framing or a record extending past EOF (a torn tail)
			// is skipped; a checksum failure is also counted.
			if errors.Is(err, errChecksum) {
				s.drops++
			}
			i = resync(data, i+1)
			continue
		}
		s.indexPut(fp, entry{seg: seg, off: i, total: int64(total)})
		i += int64(total)
		seg.size = i
	}
}

// resync finds the next possible record start at or after pos.
func resync(data []byte, pos int64) int64 {
	if pos >= int64(len(data)) {
		return int64(len(data))
	}
	j := bytes.Index(data[pos:], magic[:])
	if j < 0 {
		return int64(len(data))
	}
	return pos + int64(j)
}

// indexPut records the newest location of fp, retiring any previous one
// to the dead pool.
func (s *Store) indexPut(fp core.Fingerprint, e entry) {
	if old, ok := s.index[fp]; ok {
		s.live -= old.total
		s.dead += old.total
	}
	s.index[fp] = e
	s.live += e.total
}

func segmentName(id uint64) string { return fmt.Sprintf("seg-%08d.log", id) }

func (s *Store) createSegment(id uint64) (*segment, error) {
	path := filepath.Join(s.dir, segmentName(id))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &segment{id: id, path: path, f: f}, nil
}

func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

func (s *Store) closeAll() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

// encodeRecord frames one (fingerprint, value) record.
func encodeRecord(fp core.Fingerprint, val []byte) []byte {
	rec := make([]byte, headerLen+keyLen+len(val))
	copy(rec[0:4], magic[:])
	binary.LittleEndian.PutUint32(rec[4:8], uint32(keyLen))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(val)))
	copy(rec[headerLen:], fp[:])
	copy(rec[headerLen+keyLen:], val)
	binary.LittleEndian.PutUint32(rec[12:16], recordCRC(rec[4:12], rec[headerLen:]))
	return rec
}

func recordCRC(lengths, body []byte) uint32 {
	crc := crc32.Update(0, castagnoli, lengths)
	return crc32.Update(crc, castagnoli, body)
}

var (
	errFrame    = errors.New("store: bad record frame")
	errChecksum = errors.New("store: record checksum mismatch")
)

// parseFrame checks the record frame at the start of b: the magic
// marker, a key of keyLen bytes, a value within maxValueBytes that b
// holds in full, and the CRC-32C over lengths‖key‖value. It returns the
// key, the value (aliasing b) and the frame's length. Segment replay,
// every read and DecodeFrames all go through it.
func parseFrame(b []byte) (fp core.Fingerprint, val []byte, n int, err error) {
	if len(b) < headerLen || !bytes.Equal(b[:4], magic[:]) {
		return fp, nil, 0, errFrame
	}
	kl := int(binary.LittleEndian.Uint32(b[4:]))
	vl := int(binary.LittleEndian.Uint32(b[8:]))
	n = headerLen + kl + vl
	if kl != keyLen || vl > maxValueBytes || n > len(b) {
		return fp, nil, 0, errFrame
	}
	if recordCRC(b[4:12], b[headerLen:n]) != binary.LittleEndian.Uint32(b[12:]) {
		return fp, nil, 0, errChecksum
	}
	copy(fp[:], b[headerLen:])
	return fp, b[headerLen+kl : n], n, nil
}

// DecodeFrames splits a run of back-to-back record frames, as Since
// returns them, into records. Every frame is checked like a segment
// record; decoding stops at the first bad frame and returns the records
// before it together with the error. Values alias frames.
func DecodeFrames(frames []byte) ([]Record, error) {
	var recs []Record
	for i := 0; i < len(frames); {
		fp, val, n, err := parseFrame(frames[i:])
		if err != nil {
			return recs, fmt.Errorf("%w at byte %d", err, i)
		}
		recs = append(recs, Record{FP: fp, Val: val})
		i += n
	}
	return recs, nil
}

// Put appends one record and fsyncs it before returning nil. On any
// error the record is not acknowledged: it is never indexed, and a torn
// on-disk prefix is truncated away before the next append. Putting the
// same fingerprint again replaces the old record (last write wins on
// replay); in practice values are deterministic functions of their key,
// so a rewrite carries identical bytes.
func (s *Store) Put(fp core.Fingerprint, val []byte) error {
	if len(val) > maxValueBytes {
		return ErrValueTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := chaos.Step(chaos.SiteStoreWrite); err != nil {
		return err
	}
	a := s.active()
	if s.torn {
		// A previous append failed partway; cut back to the last
		// acknowledged byte so this record starts on a clean boundary.
		if err := a.f.Truncate(a.size); err != nil {
			return err
		}
		s.torn = false
		s.reseals++
	}
	rec := encodeRecord(fp, val)
	// Chaos: a torn write lands a prefix of the record with no way to tell
	// — exactly what a kill mid-write leaves; a corrupt write lands the
	// whole record with a flipped value byte (bit rot), detectable only by
	// checksum. Neither is acknowledged or indexed.
	if cerr, fired := chaos.Fire(chaos.SiteStoreTorn); fired {
		a.f.WriteAt(rec[:len(rec)/2], a.size)
		s.torn = true
		return cerr
	}
	if cerr, fired := chaos.Fire(chaos.SiteStoreCorrupt); fired {
		bad := append([]byte(nil), rec...)
		bad[len(bad)-1] ^= 0xff
		if _, err := a.f.WriteAt(bad, a.size); err != nil {
			s.torn = true
			return cerr
		}
		a.size += int64(len(bad))
		s.dead += int64(len(bad))
		return cerr
	}
	if _, err := a.f.WriteAt(rec, a.size); err != nil {
		s.torn = true
		return err
	}
	// A failed fsync leaves the bytes on disk but durability unconfirmed:
	// the record must not be acknowledged. The torn flag truncates it away
	// before the next append; if the process dies first, replay may find
	// the record intact — a harmless duplicate of a recomputation.
	if err := chaos.Step(chaos.SiteStoreSync); err != nil {
		s.torn = true
		return err
	}
	if err := a.f.Sync(); err != nil {
		s.torn = true
		return err
	}
	off := a.size
	a.size += int64(len(rec))
	s.indexPut(fp, entry{seg: a, off: off, total: int64(len(rec))})
	if a.size >= s.opts.MaxSegmentBytes {
		return s.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment and starts a new one.
func (s *Store) rotateLocked() error {
	seg, err := s.createSegment(s.active().id + 1)
	if err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		seg.f.Close()
		return err
	}
	s.segs = append(s.segs, seg)
	return nil
}

// Get returns the stored value for fp. The record is re-read and
// checksum-verified on every call: bit rot is detected, the record is
// dropped from the index (a miss — the caller recomputes), and the bytes
// join the dead pool. A corrupt record is never returned.
func (s *Store) Get(fp core.Fingerprint) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.getLocked(fp)
	return v, ok
}

func (s *Store) getLocked(fp core.Fingerprint) ([]byte, bool) {
	if s.closed {
		return nil, false
	}
	e, ok := s.index[fp]
	if !ok {
		return nil, false
	}
	_, val, ok := s.readLocked(fp, e)
	return val, ok
}

// readLocked reads fp's record frame at e and checks it; a frame that
// fails (bit rot, or a read error) is dropped from the index.
func (s *Store) readLocked(fp core.Fingerprint, e entry) (frame, val []byte, ok bool) {
	frame = make([]byte, e.total)
	if _, err := e.seg.f.ReadAt(frame, e.off); err == nil {
		if got, v, n, err := parseFrame(frame); err == nil && got == fp && int64(n) == e.total {
			return frame, v, true
		}
	}
	s.dropLocked(fp, e)
	return nil, nil, false
}

func (s *Store) dropLocked(fp core.Fingerprint, e entry) {
	delete(s.index, fp)
	s.live -= e.total
	s.dead += e.total
	s.drops++
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Range calls fn for every live record in ascending fingerprint order
// (deterministic across runs) until fn returns false. Values are verified
// like Get; corrupt records are skipped. fn must not call back into the
// store.
func (s *Store) Range(fn func(fp core.Fingerprint, val []byte) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fps := make([]core.Fingerprint, 0, len(s.index))
	for fp := range s.index {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return bytes.Compare(fps[i][:], fps[j][:]) < 0 })
	for _, fp := range fps {
		v, ok := s.getLocked(fp)
		if !ok {
			continue
		}
		if !fn(fp, v) {
			return
		}
	}
}

// endLocked is the cursor one past the last appended record.
func (s *Store) endLocked() Cursor {
	a := s.active()
	return Cursor{Gen: s.gen, Seg: a.id, Off: a.size}
}

// Since returns the live records appended at or after cursor c, in log
// order, as their on-disk frames back to back (DecodeFrames splits
// them). A batch is bounded by maxRecords (<=0 means 256) and maxBytes
// of values (<=0 means 1 MiB; at least one record is always returned if
// any is pending). It returns the frames, the cursor to resume from, and
// whether more records remain. A cursor from a different epoch (an
// earlier Open — see Cursor) restarts from the beginning. Once drained,
// the cursor returned is the end of the log. Each frame is re-read and
// checked like Get; a corrupt record is dropped, never returned.
func (s *Store) Since(c Cursor, maxRecords int, maxBytes int64) ([]byte, Cursor, bool) {
	if maxRecords <= 0 {
		maxRecords = 256
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, c, false
	}
	if c.Gen != s.gen {
		c = Cursor{Gen: s.gen}
	}
	if c == s.endLocked() {
		// Anti-entropy's steady state: nothing appended since the last
		// pull, answered without scanning the index.
		return nil, c, false
	}
	type pos struct {
		fp core.Fingerprint
		e  entry
	}
	var pend []pos
	for fp, e := range s.index {
		if e.seg.id > c.Seg || (e.seg.id == c.Seg && e.off >= c.Off) {
			pend = append(pend, pos{fp, e})
		}
	}
	sort.Slice(pend, func(i, j int) bool {
		if pend[i].e.seg.id != pend[j].e.seg.id {
			return pend[i].e.seg.id < pend[j].e.seg.id
		}
		return pend[i].e.off < pend[j].e.off
	})
	var frames []byte
	var recs int
	var vbytes int64
	for i, p := range pend {
		frame, v, ok := s.readLocked(p.fp, p.e)
		if !ok {
			continue // dropped as corrupt; the positions after it still stream
		}
		frames = append(frames, frame...)
		recs++
		vbytes += int64(len(v))
		if recs >= maxRecords || vbytes >= maxBytes {
			return frames, Cursor{Gen: s.gen, Seg: p.e.seg.id, Off: p.e.off + p.e.total}, i+1 < len(pend)
		}
	}
	// Drained: jump the cursor to the end of the log so the caller's next
	// call is a cheap no-op.
	return frames, s.endLocked(), false
}

// Stats reports the store's physical state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Records:        len(s.index),
		LiveBytes:      s.live,
		DeadBytes:      s.dead,
		DroppedCorrupt: s.drops,
		TornResealed:   s.reseals,
		Cursor:         s.endLocked(),
	}
}

// Close syncs the active segment and closes every file handle. The store
// rejects further operations.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.active().f.Sync()
	s.closeAll()
	return err
}

// syncDir fsyncs a directory, making just-created or just-renamed names
// durable. Filesystems that cannot sync a directory handle report
// EINVAL/ENOTSUP; those are ignored — there the operation is meaningless,
// not failed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
