// queue.go is the execution backbone of the daemon: a bounded job queue
// with admission control, fingerprint-keyed coalescing of identical
// in-flight requests, an LRU cache of completed results backed by an
// optional persistent content-addressed store, and a
// drain-under-deadline shutdown path.
//
// Invariants:
//
//   - Admission is all-or-nothing under one mutex: a request is answered
//     from the cache (LRU first, then the persistent store), attached to
//     an identical in-flight job, or enqueued as a new job — and when the
//     queue is full it is rejected immediately (ErrQueueFull -> HTTP
//     429), never buffered without bound.
//   - A job's context is cancelled when its last waiter disconnects
//     (dropped connections cancel their computation) and when the drain
//     deadline passes (in-flight jobs degrade to StatusPartial results
//     via the library's budget semantics).
//   - Only complete (StatusComplete, HTTP 200) results enter the cache or
//     the store: partial results depend on timing and would break the
//     byte-identical response contract.
//   - The store is an accelerator, never a dependency: a store fault
//     (I/O error, injected chaos, even a panic) surfaces as a counter and
//     a recompute, never a failed request or a crashed daemon.
package server

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/store"
)

// Admission errors.
var (
	// ErrQueueFull rejects a request because the bounded queue is at
	// capacity; the handler answers 429 with a Retry-After hint.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining rejects a request because the server is shutting down.
	ErrDraining = errors.New("server: draining")
)

// result is a finished job: the HTTP status and canonical JSON body every
// attached request receives verbatim.
type result struct {
	status int
	body   []byte
}

// job is one queued computation. Requests with the same fingerprint
// attach to the same job (waiters counts them, guarded by the queue
// mutex); res is published before done closes.
type job struct {
	fp      core.Fingerprint
	kind    string // endpoint label for metrics
	run     func(ctx context.Context) (int, []byte, bool)
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	res     result
	waiters int
}

// queue is the bounded, coalescing job queue.
type queue struct {
	st *stats.Stats
	ch chan *job

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	inflight map[core.Fingerprint]*job
	cache    *lruCache
	store    *store.Store // optional durable L2 behind the LRU
	draining bool

	wg sync.WaitGroup // worker goroutines
}

// newQueue builds the queue, warms the LRU from the persistent store
// (when one is given), and starts `workers` job-runner goroutines.
func newQueue(depth, workers, cacheSize int, st *stats.Stats, stor *store.Store) *queue {
	ctx, cancel := context.WithCancel(context.Background())
	q := &queue{
		st:         st,
		ch:         make(chan *job, depth),
		baseCtx:    ctx,
		baseCancel: cancel,
		inflight:   map[core.Fingerprint]*job{},
		cache:      newLRUCache(cacheSize),
		store:      stor,
	}
	q.warm(cacheSize)
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// warm preloads up to cap LRU entries from the persistent store, so a
// restarted daemon serves repeat traffic hot from the first request.
// Store records beyond the LRU capacity still hit via the submit-time
// store lookup.
func (q *queue) warm(capacity int) {
	if q.store == nil || capacity < 1 {
		return
	}
	defer q.recoverStore()
	n := 0
	q.store.Range(func(fp core.Fingerprint, val []byte) bool {
		r, ok := decodeResult(val)
		if !ok {
			return true
		}
		q.cache.add(fp, r)
		n++
		return n < capacity
	})
	q.st.Add("server.store.warmed", int64(n))
}

// encodeResult frames a completed result for the store: the HTTP status
// followed by the canonical body bytes.
func encodeResult(r result) []byte {
	buf := make([]byte, 4+len(r.body))
	binary.LittleEndian.PutUint32(buf, uint32(r.status))
	copy(buf[4:], r.body)
	return buf
}

func decodeResult(v []byte) (result, bool) {
	if len(v) < 4 {
		return result{}, false
	}
	status := int(binary.LittleEndian.Uint32(v))
	if status < 100 || status > 599 {
		return result{}, false
	}
	return result{status: status, body: append([]byte(nil), v[4:]...)}, true
}

// recoverStore is the store-is-never-a-dependency backstop: a panicking
// store call (injected chaos, or a real defect) is swallowed into a
// counter so the request path degrades to a recompute.
func (q *queue) recoverStore() {
	if rec := recover(); rec != nil {
		q.st.Add("server.store.error", 1)
	}
}

// storeGet consults the persistent store; misses, decode failures and
// store faults all come back as a plain miss.
func (q *queue) storeGet(fp core.Fingerprint) (r result, ok bool) {
	defer q.recoverStore()
	v, hit := q.store.Get(fp)
	if !hit {
		return result{}, false
	}
	return decodeResult(v)
}

// storePut writes a completed result through to the persistent store.
// Failures are counted, never propagated: the response has its in-memory
// path regardless, and an unacknowledged record is simply recomputed
// after the next boot.
func (q *queue) storePut(fp core.Fingerprint, r result) {
	defer q.recoverStore()
	if err := q.store.Put(fp, encodeResult(r)); err != nil {
		q.st.Add("server.store.error", 1)
	}
}

// submit admits one request. Exactly one of the returns is meaningful:
// a cached result (served immediately), a job to wait on, or an
// admission error (ErrQueueFull, ErrDraining, or an injected enqueue
// fault).
func (q *queue) submit(fp core.Fingerprint, kind string, deadline time.Duration, run func(ctx context.Context) (int, []byte, bool)) (*job, *result, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, nil, ErrDraining
	}
	if r, ok := q.cache.get(fp); ok {
		q.st.Add("server.cache.hit", 1)
		return nil, &r, nil
	}
	if q.store != nil {
		// Durable L2: results evicted from the LRU (or written by an
		// earlier incarnation of the daemon and not warmed) are still one
		// verified read away. The read is small and bounded, so holding the
		// admission mutex across it keeps the all-or-nothing invariant
		// without measurable contention.
		if r, ok := q.storeGet(fp); ok {
			q.cache.add(fp, r)
			q.st.Add("server.store.hit", 1)
			return nil, &r, nil
		}
	}
	q.st.Add("server.cache.miss", 1)
	// A job whose context is already done (its deadline expired) can only
	// publish a partial result; a new request must not inherit it.
	if j := q.inflight[fp]; j != nil && j.ctx.Err() == nil {
		j.waiters++
		q.st.Add("server.coalesce.hit", 1)
		return j, nil, nil
	}
	if err := chaos.Step(chaos.SiteServerEnqueue); err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(q.baseCtx, deadline)
	j := &job{
		fp: fp, kind: kind, run: run,
		ctx: ctx, cancel: cancel,
		done: make(chan struct{}), waiters: 1,
	}
	select {
	case q.ch <- j:
	default:
		cancel()
		q.st.Add("server.queue.rejected", 1)
		return nil, nil, ErrQueueFull
	}
	q.inflight[fp] = j
	q.st.Add("server.jobs.enqueued", 1)
	return j, nil, nil
}

// detach drops one waiter from a job; when the last waiter goes (its
// connection died), the job leaves the in-flight table and its context
// is cancelled so the computation stops at its next budget boundary
// instead of burning workers for nobody. Removing it first, under the
// admission mutex, keeps a later identical request from coalescing onto
// the cancelled job.
func (q *queue) detach(j *job) {
	q.mu.Lock()
	j.waiters--
	orphaned := j.waiters == 0
	if orphaned && q.inflight[j.fp] == j {
		delete(q.inflight, j.fp)
	}
	q.mu.Unlock()
	if orphaned {
		q.st.Add("server.jobs.orphaned", 1)
		j.cancel()
	}
}

// depth reports the number of queued-but-unstarted jobs and the number of
// distinct in-flight fingerprints.
func (q *queue) depth() (queued, inflight int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ch), len(q.inflight)
}

// worker runs queued jobs. Every job body is panic-isolated (a panicking
// computation answers 500, never kills the daemon), its result enters the
// cache only when the run reported it cacheable, and its context is
// always cancelled afterwards so deadline timers are released.
func (q *queue) worker() {
	defer q.wg.Done()
	for j := range q.ch {
		start := time.Now()
		status, body, cacheable := q.runJob(j)
		q.st.ObserveSince("server.job."+j.kind+".latency", start)
		j.res = result{status: status, body: body}
		// Write through to the persistent store before publishing, outside
		// the admission mutex (Put fsyncs): once waiters see the result it
		// is already durable, so a restarted daemon serves it without
		// recomputing.
		if cacheable && q.store != nil {
			q.storePut(j.fp, j.res)
		}
		q.mu.Lock()
		if cacheable {
			q.cache.add(j.fp, j.res)
		}
		// A replacement job may own the fingerprint by now (this one was
		// orphaned or expired before it ran).
		if q.inflight[j.fp] == j {
			delete(q.inflight, j.fp)
		}
		q.mu.Unlock()
		j.cancel()
		close(j.done)
	}
}

// runJob executes one job under panic isolation.
func (q *queue) runJob(j *job) (status int, body []byte, cacheable bool) {
	q.st.Add("server.jobs.run", 1)
	type out struct {
		status    int
		body      []byte
		cacheable bool
	}
	o, err := exec.Guard1("server.job."+j.kind, -1, func() (out, error) {
		s, b, c := j.run(j.ctx)
		return out{s, b, c}, nil
	})
	if err != nil {
		q.st.Add("server.jobs.panicked", 1)
		return 500, errorJSON(err), false
	}
	return o.status, o.body, o.cacheable
}

// drain shuts the queue down: no further admissions, queued jobs still
// run, and when ctx expires before the backlog clears the base context is
// cancelled so every remaining job lands a StatusPartial result at its
// next budget boundary. drain always waits for the workers to exit — the
// no-goroutine-leak half of the shutdown contract.
func (q *queue) drain(ctx context.Context) error {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return nil
	}
	q.draining = true
	close(q.ch) // submits are rejected before the send, under the same mutex
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		q.baseCancel() // in-flight jobs degrade to partial results
		<-done
	}
	q.baseCancel()
	return err
}

// lruCache is a small fingerprint-keyed LRU of completed results.
type lruCache struct {
	cap int
	m   map[core.Fingerprint]*list.Element
	l   *list.List // front = most recently used
}

type lruEntry struct {
	fp  core.Fingerprint
	res result
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, m: map[core.Fingerprint]*list.Element{}, l: list.New()}
}

func (c *lruCache) get(fp core.Fingerprint) (result, bool) {
	if e, ok := c.m[fp]; ok {
		c.l.MoveToFront(e)
		return e.Value.(*lruEntry).res, true
	}
	return result{}, false
}

func (c *lruCache) add(fp core.Fingerprint, r result) {
	if c.cap < 1 {
		return
	}
	if e, ok := c.m[fp]; ok {
		e.Value.(*lruEntry).res = r
		c.l.MoveToFront(e)
		return
	}
	c.m[fp] = c.l.PushFront(&lruEntry{fp: fp, res: r})
	for c.l.Len() > c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).fp)
	}
}
