// drive.go is the load driver: one process, at most nproc requests and
// connections in flight, closed or open loop. Open-loop requests are timed
// from when they were due, not from when a free slot let them go, so a
// stall shows as latency on every request queued behind it.
package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classes; only classOK counts as a success.
const (
	classOK        = "ok"
	classPartial   = "partial"
	classRejected  = "429"
	classDraining  = "503"
	classError     = "error"
	classUntyped   = "untyped"
	classTransport = "transport"
)

// sample is one answered (or failed) request.
type sample struct {
	key   string
	class string
	body  []byte
	node  string        // X-Hlts-Node: the worker a coordinator dispatched to
	lat   time.Duration // from due (open loop) or send (closed loop) to the last body byte
}

type loadClient struct {
	http *http.Client
	base string
	conc int
}

// newLoadClient caps connections to the target at conc, the same bound
// the loops put on requests in flight.
func newLoadClient(base string, conc int) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: conc, MaxIdleConnsPerHost: conc, DisableCompression: true}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base, conc: conc}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}

// send issues one request and classifies the answer.
func (c *loadClient) send(r request) sample {
	s := sample{key: r.key(), class: classTransport}
	resp, err := c.http.Post(c.base+r.Path, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return s
	}
	body, err := readAll(resp)
	if err != nil {
		return s
	}
	s.body, s.node = body, resp.Header.Get("X-Hlts-Node")
	s.class = classify(resp, body)
	return s
}

// classify sorts a response into an outcome class. A 200 is complete only
// when every status field in it says so.
func classify(resp *http.Response, body []byte) string {
	var p struct {
		Status     string  `json:"status"`
		ATPGStatus string  `json:"atpg_status"`
		Error      *string `json:"error"`
		Synthesis  *struct {
			Status string `json:"status"`
		} `json:"synthesis"`
		BIST *struct {
			Status string `json:"status"`
		} `json:"bist"`
	}
	typed := json.Unmarshal(body, &p) == nil
	switch {
	case !typed:
		return classUntyped
	case resp.StatusCode == http.StatusOK:
		if p.Status == "partial" || p.ATPGStatus == "partial" ||
			p.Synthesis != nil && p.Synthesis.Status == "partial" || p.BIST != nil && p.BIST.Status == "partial" {
			return classPartial
		}
		if p.Error != nil {
			return classUntyped
		}
		return classOK
	case p.Error == nil:
		return classUntyped
	case resp.StatusCode == http.StatusTooManyRequests:
		return classRejected
	case resp.StatusCode == http.StatusServiceUnavailable:
		return classDraining
	default:
		return classError
	}
}

// loadResult is one measured window.
type loadResult struct {
	samples []sample
	elapsed time.Duration // window start to the last answer
	maxLag  time.Duration // worst dispatch delay behind the schedule
}

// okLatencies returns the latency of every complete answer, in ms.
func (lr loadResult) okLatencies() []float64 {
	var lat []float64
	for _, s := range lr.samples {
		if s.class == classOK {
			lat = append(lat, ms(s.lat))
		}
	}
	return lat
}

// closed runs conc clients that each send their next request as soon as
// the previous one is answered, until next(from) .. next(from+n-1) are
// all answered.
func (c *loadClient) closed(next func(int) request, from, n int) loadResult {
	var (
		mu   sync.Mutex
		res  loadResult
		idx  atomic.Int64
		wg   sync.WaitGroup
		last time.Time
	)
	start := time.Now()
	for k := 0; k < c.conc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(idx.Add(1) - 1); i < n; i = int(idx.Add(1) - 1) {
				r := next(from + i)
				t0 := time.Now()
				s := c.send(r)
				s.lat = time.Since(t0)
				mu.Lock()
				res.samples = append(res.samples, s)
				last = time.Now()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = last.Sub(start)
	return res
}

// open sends each request when it is due, or as soon after as one of the
// conc slots frees, and times it from its due time.
func (c *loadClient) open(sched []request) loadResult {
	var (
		mu   sync.Mutex
		res  loadResult
		wg   sync.WaitGroup
		last time.Time
	)
	sem := make(chan struct{}, c.conc)
	start := time.Now()
	for _, r := range sched {
		due := start.Add(r.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		if lag := time.Since(due); lag > res.maxLag {
			res.maxLag = lag
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.send(r)
			s.lat = time.Since(due)
			<-sem
			mu.Lock()
			res.samples = append(res.samples, s)
			last = time.Now()
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = last.Sub(start)
	return res
}
