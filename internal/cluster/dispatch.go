// dispatch.go is the failover engine: given a fingerprint and the raw
// request, try the rendezvous-ranked live nodes in order, retrying
// across full passes with capped exponential backoff + jitter until a
// node answers, the retry budget runs out, or the request deadline
// expires. A worker 429/503 is load-shedding, not an answer: its
// Retry-After hint is parsed and honored as the floor of the next
// backoff sleep. Every transport failure demotes the node to Suspect so
// the ranking reflects what dispatch just learned.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// Dispatch failures; both degrade to a typed 503 + Retry-After at the
// serving layer.
var (
	// ErrNoWorkers means the registry has no Alive or Suspect node left.
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrRetriesExhausted means every pass over the ranking failed.
	ErrRetriesExhausted = errors.New("cluster: retry budget exhausted")
)

// proxyReq is the raw material of a forward: the original request bytes,
// re-sent verbatim so worker-side validation and deadline_ms semantics
// are identical to a direct hit.
type proxyReq struct {
	method string
	path   string
	query  string
	body   []byte
}

// upstream is a worker's answer, relayed verbatim to the client; node is
// the worker that answered.
type upstream struct {
	status int
	header http.Header
	body   []byte
	node   string
}

// dispatch runs the retry loop. It returns a worker answer (any status
// except 429/503 load-shedding), or an error: ctx.Err() when the
// deadline/client cut it short, ErrRetriesExhausted / ErrNoWorkers when
// the cluster could not take the job.
func (c *Coordinator) dispatch(ctx context.Context, fp core.Fingerprint, pr proxyReq) (*upstream, error) {
	backoff := c.cfg.RetryBase
	sawNode := false
	for round := 0; ; round++ {
		nodes := c.reg.Ranked(fp)
		var hint time.Duration
		for _, n := range nodes {
			sawNode = true
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := chaos.Step(chaos.SiteClusterDispatch); err != nil {
				// An injected dispatch fault is a transport failure: demote the
				// node and fail over exactly like a real one.
				c.st.Add("cluster.dispatch.error", 1)
				c.reg.MarkSuspect(n.ID)
				continue
			}
			up, err := c.forward(ctx, n, pr)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				c.st.Add("cluster.dispatch.error", 1)
				c.reg.MarkSuspect(n.ID)
				continue
			}
			if up.status == http.StatusTooManyRequests || up.status == http.StatusServiceUnavailable {
				// The worker is full or draining: honor its hint and let the
				// next-ranked node take the job this pass.
				c.st.Add("cluster.dispatch.pushback", 1)
				if h := parseRetryAfter(up.header); h > hint {
					hint = h
				}
				continue
			}
			c.st.Add("cluster.dispatch.ok", 1)
			if round > 0 {
				c.st.Add("cluster.dispatch.recovered", 1)
			}
			return up, nil
		}
		if round+1 >= c.cfg.Rounds {
			if !sawNode {
				return nil, ErrNoWorkers
			}
			return nil, ErrRetriesExhausted
		}
		// Exponential backoff with full jitter, floored by the worker hint,
		// capped by RetryMax, and always bounded by the request deadline.
		sleep := backoff + c.jitter.Draw(backoff)
		if hint > sleep {
			sleep = hint
		}
		if sleep > c.cfg.RetryMax {
			sleep = c.cfg.RetryMax
		}
		if err := sleepCtx(ctx, sleep); err != nil {
			return nil, err
		}
		backoff *= 2
		if backoff > c.cfg.RetryMax {
			backoff = c.cfg.RetryMax
		}
	}
}

// forward sends the request to one node and reads the full answer. Any
// transport-level failure (dial, abrupt close mid-body, i.e. a node dying
// mid-job) comes back as an error — the caller's cue to fail over.
func (c *Coordinator) forward(ctx context.Context, n NodeRef, pr proxyReq) (*upstream, error) {
	u := n.Addr + pr.path
	if pr.query != "" {
		u += "?" + pr.query
	}
	var body io.Reader
	if pr.body != nil {
		body = bytes.NewReader(pr.body)
	}
	req, err := http.NewRequestWithContext(ctx, pr.method, u, body)
	if err != nil {
		return nil, fmt.Errorf("cluster: build forward to %s: %w", n.ID, err)
	}
	if pr.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: read answer from %s: %w", n.ID, err)
	}
	return &upstream{status: resp.StatusCode, header: resp.Header, body: b, node: n.ID}, nil
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads an integral-seconds Retry-After header (the only
// form our servers emit); absent or malformed values are 0.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
