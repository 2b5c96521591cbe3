// api.go defines the wire types of the synthesis service: the JSON
// request bodies the endpoints accept, their normalized forms (defaults
// applied, inputs validated, behaviour graph loaded), the canonical
// request fingerprints that key coalescing and the result cache, and the
// pure response builders.
//
// Normalization and response building are exported and deterministic on
// purpose: the integration tests call them directly on results computed
// through the library facade and assert the daemon's responses are
// byte-identical — the serving layer (queue, coalescing, cache) must be
// invisible in the payload.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	hlts "repro"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sched"
	"repro/internal/testability"
)

// SynthesizeRequest is the body of POST /v1/synthesize. Exactly one of
// Bench and VHDL selects the behaviour; the remaining knobs mirror the
// hlts CLI flags and default the same way.
type SynthesizeRequest struct {
	Bench  string   `json:"bench,omitempty"`
	VHDL   string   `json:"vhdl,omitempty"`
	Width  int      `json:"width"`
	Method string   `json:"method,omitempty"` // default "ours"
	K      int      `json:"k,omitempty"`      // default 3
	Alpha  *float64 `json:"alpha,omitempty"`  // default 2
	Beta   *float64 `json:"beta,omitempty"`   // default 1
	Slack  int      `json:"slack,omitempty"`
	Loop   string   `json:"loop,omitempty"` // default: the behaviour's own loop
	// DeadlineMS caps this request's computation; it is bounded above by
	// the server's MaxDeadline and deliberately excluded from the request
	// fingerprint (a deadline changes when an answer arrives, not which
	// answer).
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// NormSynthesize is a normalized synthesis request: defaults applied,
// inputs validated, behaviour graph loaded.
type NormSynthesize struct {
	Behaviour string // benchmark name, or "vhdl:<entity>" for sources
	Method    string
	Graph     *hlts.Graph
	Params    hlts.Params
}

// Normalize validates the request and loads the behaviour graph. Every
// error it returns is a client error (HTTP 400): bad width, unknown
// benchmark or method, malformed VHDL, a loop that names no value of the
// behaviour, negative deadline, a negative slack, or a slack that takes
// the latency (ASAP length plus slack) past the operation count. A fully
// serial schedule fits in that many steps, so a larger slack only lets
// the baselines' schedulers spread the same operations over idle steps,
// and they take no context a deadline could stop.
func (r SynthesizeRequest) Normalize() (*NormSynthesize, error) {
	if r.DeadlineMS < 0 {
		return nil, fmt.Errorf("deadline_ms must be >= 0 (got %d)", r.DeadlineMS)
	}
	n := &NormSynthesize{Method: r.Method}
	if n.Method == "" {
		n.Method = hlts.MethodOurs
	}
	if !validMethod(n.Method) {
		return nil, fmt.Errorf("unknown method %q (want one of %s)", n.Method, strings.Join(hlts.Methods(), ", "))
	}
	var err error
	switch {
	case r.Bench != "" && r.VHDL != "":
		return nil, fmt.Errorf("choose one of bench and vhdl, not both")
	case r.Bench != "":
		n.Behaviour = r.Bench
		n.Graph, err = hlts.LoadBenchmark(r.Bench, r.Width)
	case r.VHDL != "":
		n.Graph, err = hlts.CompileVHDL(r.VHDL, r.Width)
		if err == nil {
			n.Behaviour = "vhdl:" + n.Graph.Name
		}
	default:
		return nil, fmt.Errorf("one of bench and vhdl is required")
	}
	if err != nil {
		return nil, err
	}
	p := hlts.DefaultParams(r.Width)
	if r.K > 0 {
		p.K = r.K
	}
	if r.Alpha != nil {
		p.Alpha = *r.Alpha
	}
	if r.Beta != nil {
		p.Beta = *r.Beta
	}
	if r.Slack < 0 {
		return nil, fmt.Errorf("slack must be >= 0 (got %d)", r.Slack)
	}
	if r.Slack > 0 {
		asap, err := sched.NewProblem(n.Graph).ASAP()
		if err != nil {
			return nil, err
		}
		if most := n.Graph.NumNodes() - asap.Len; r.Slack > most {
			return nil, fmt.Errorf("slack must be in [0, %d]: ASAP length %d plus %d is the operation count, where a fully serial schedule fits (got %d)", most, asap.Len, most, r.Slack)
		}
	}
	p.Slack = r.Slack
	p.LoopSignal = r.Loop
	if p.LoopSignal == "" {
		p.LoopSignal = n.Graph.Loop
	} else if _, ok := n.Graph.ValueByName(p.LoopSignal); !ok {
		return nil, fmt.Errorf("loop %q is not a value of the behaviour", p.LoopSignal)
	}
	n.Params = p
	return n, nil
}

func validMethod(m string) bool {
	for _, known := range hlts.Methods() {
		if m == known {
			return true
		}
	}
	return false
}

// Fingerprint canonically hashes everything the response depends on:
// the endpoint, the behaviour graph and the result-affecting synthesis
// parameters — the same FNV-128a encoding the evaluation cache keys on,
// so equal fingerprints imply bit-identical responses. Operational knobs
// (workers, deadline, stats) are excluded by construction.
func (n *NormSynthesize) Fingerprint() core.Fingerprint {
	h := core.NewHasher()
	h.Str("v1/synthesize")
	h.Str(n.Method)
	h.Graph(n.Graph)
	h.Params(n.Params)
	return h.Sum()
}

// SynthesizeResponse is the body of a successful /v1/synthesize call.
type SynthesizeResponse struct {
	Behaviour       string  `json:"behaviour"`
	Method          string  `json:"method"`
	Width           int     `json:"width"`
	ExecTime        int     `json:"exec_time"`
	Area            float64 `json:"area"`
	Modules         int     `json:"modules"`
	Registers       int     `json:"registers"`
	Muxes           int     `json:"muxes"`
	MuxInputs       int     `json:"mux_inputs"`
	SelfLoops       int     `json:"self_loops"`
	MeanTestability float64 `json:"mean_testability"`
	Schedule        string  `json:"schedule"`
	Allocation      string  `json:"allocation"`
	Status          string  `json:"status"`
	Exhausted       string  `json:"exhausted,omitempty"`
	Fingerprint     string  `json:"fingerprint"`
}

// BuildSynthesizeResponse derives the response payload from a synthesis
// result: a pure function of (normalized request, result), so identical
// results marshal to identical bytes whichever path produced them.
func BuildSynthesizeResponse(n *NormSynthesize, res *hlts.Result) SynthesizeResponse {
	return SynthesizeResponse{
		Behaviour:       n.Behaviour,
		Method:          res.Method,
		Width:           n.Params.Width,
		ExecTime:        res.ExecTime,
		Area:            res.Area.Total,
		Modules:         res.Design.Alloc.NumModules(),
		Registers:       res.Design.Alloc.NumRegs(),
		Muxes:           res.Mux.Muxes,
		MuxInputs:       res.Mux.Inputs,
		SelfLoops:       res.Design.SelfLoops(),
		MeanTestability: testability.MeanTestability(res.Design, res.Metrics),
		Schedule:        res.Design.Sched.String(n.Graph),
		Allocation:      res.Design.Alloc.String(n.Graph),
		Status:          res.Status.String(),
		Exhausted:       res.Exhausted,
		Fingerprint:     n.Fingerprint().String(),
	}
}

// TestDesignRequest is the body of POST /v1/testdesign: a synthesis
// request plus the test-generation knobs. Scan selects up to Scan
// partial-scan registers before ATPG; BIST additionally evaluates a
// built-in self-test configuration of the same design.
type TestDesignRequest struct {
	SynthesizeRequest
	Seed     int64        `json:"seed,omitempty"`   // default 1
	Faults   int          `json:"faults,omitempty"` // fault sample size, default 1500
	Scan     int          `json:"scan,omitempty"`
	TestMode bool         `json:"test_mode,omitempty"`
	BIST     *BISTRequest `json:"bist,omitempty"`
}

// BISTRequest configures the optional self-test evaluation.
type BISTRequest struct {
	TPG    int `json:"tpg"`
	MISR   int `json:"misr"`
	Cycles int `json:"cycles,omitempty"` // default 100
	Faults int `json:"faults,omitempty"` // sample size, default 400
	// Lanes is the number of parallel pseudorandom sessions evaluated per
	// simulation pass, 1..64; default 64. 1 reproduces the historical
	// single-session evaluator.
	Lanes int `json:"lanes,omitempty"`
}

// NormTestDesign is a normalized test-design request.
type NormTestDesign struct {
	NormSynthesize
	Seed     int64
	Faults   int
	Scan     int
	TestMode bool
	BIST     *flow.BIST
}

// Normalize validates the request and applies defaults.
func (r TestDesignRequest) Normalize() (*NormTestDesign, error) {
	ns, err := r.SynthesizeRequest.Normalize()
	if err != nil {
		return nil, err
	}
	n := &NormTestDesign{NormSynthesize: *ns, Seed: r.Seed, Faults: r.Faults, Scan: r.Scan, TestMode: r.TestMode}
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Faults == 0 {
		n.Faults = 1500
	}
	// fault.Sample reads n <= 0 as "every fault", so a negative size would
	// silently run the whole list under a fingerprint of its own.
	if n.Faults < 0 {
		return nil, fmt.Errorf("faults must be >= 0 (got %d)", n.Faults)
	}
	if n.Scan < 0 {
		return nil, fmt.Errorf("scan must be >= 0 (got %d)", n.Scan)
	}
	if r.BIST != nil {
		b := flow.BIST(*r.BIST)
		if b.TPG < 0 || b.MISR < 0 || b.TPG+b.MISR == 0 {
			return nil, fmt.Errorf("bist needs tpg+misr >= 1 registers")
		}
		if b.Cycles == 0 {
			b.Cycles = 100
		}
		if b.Cycles < 1 {
			return nil, fmt.Errorf("bist cycles must be >= 1 (got %d)", b.Cycles)
		}
		if b.Faults == 0 {
			b.Faults = 400
		}
		if b.Faults < 0 {
			return nil, fmt.Errorf("bist faults must be >= 0 (got %d)", b.Faults)
		}
		if b.Lanes == 0 {
			b.Lanes = 64
		}
		if b.Lanes < 1 || b.Lanes > 64 {
			return nil, fmt.Errorf("bist lanes must be 1..64 (got %d)", b.Lanes)
		}
		n.BIST = &b
	}
	return n, nil
}

// Spec is the pipeline run the request asks for. hltsd's job and
// `hlts -atpg` both run it, so both compute the same figures.
func (n *NormTestDesign) Spec() flow.Spec {
	acfg := atpg.DefaultConfig(n.Seed)
	acfg.SampleFaults, acfg.Workers = n.Faults, n.Params.Workers
	return flow.Spec{Method: n.Method, Graph: n.Graph, Params: n.Params, Scan: n.Scan, TestMode: n.TestMode, ATPG: acfg, BIST: n.BIST}
}

// atpgOutputVersion salts the fingerprints of every response carrying
// ATPG results (/v1/testdesign and /v1/table), so a store or a peer
// holding bytes from an older engine misses instead of serving them.
// Bump it whenever ATPG output bytes change for the same request.
// /v1/synthesize runs no ATPG and stays unsalted.
const atpgOutputVersion = 2

// Fingerprint extends the synthesis fingerprint with the ATPG output
// version and the test-generation knobs.
func (n *NormTestDesign) Fingerprint() core.Fingerprint {
	h := core.NewHasher()
	h.Str("v1/testdesign")
	h.Int(atpgOutputVersion)
	h.Str(n.Method)
	h.Graph(n.Graph)
	h.Params(n.Params)
	h.U64(uint64(n.Seed))
	h.Int(n.Faults)
	h.Int(n.Scan)
	if n.TestMode {
		h.Int(1)
	} else {
		h.Int(0)
	}
	if n.BIST != nil {
		h.Str("bist")
		h.Int(n.BIST.TPG)
		h.Int(n.BIST.MISR)
		h.Int(n.BIST.Cycles)
		h.Int(n.BIST.Faults)
		h.Int(n.BIST.Lanes)
	}
	return h.Sum()
}

// TestDesignResponse is the body of a successful /v1/testdesign call.
type TestDesignResponse struct {
	Synthesis SynthesizeResponse `json:"synthesis"`

	Gates int `json:"gates"`
	DFFs  int `json:"dffs"`

	ScanRegs []int `json:"scan_regs,omitempty"`

	Coverage      float64 `json:"coverage"`
	TGEffort      int64   `json:"tg_effort"`
	TestCycles    int     `json:"test_cycles"`
	ATPGStatus    string  `json:"atpg_status"`
	ATPGExhausted string  `json:"atpg_exhausted,omitempty"`

	BIST *BISTResponse `json:"bist,omitempty"`

	Fingerprint string `json:"fingerprint"`
}

// BISTResponse reports the optional self-test evaluation.
type BISTResponse struct {
	TPG         []int   `json:"tpg"`
	MISR        []int   `json:"misr"`
	TotalFaults int     `json:"total_faults"`
	Detected    int     `json:"detected"`
	Coverage    float64 `json:"coverage"`
	Cycles      int     `json:"cycles"`
	Lanes       int     `json:"lanes"`
	Status      string  `json:"status"`
	Exhausted   string  `json:"exhausted,omitempty"`
}

// BuildTestDesignResponse derives the response payload; like its
// synthesis counterpart it is pure in its inputs.
func BuildTestDesignResponse(n *NormTestDesign, res *hlts.Result, nl *hlts.Netlist, scanRegs []int, ares *hlts.ATPGResult, tpg, misr []int, bres *atpg.BISTOutcome) TestDesignResponse {
	out := TestDesignResponse{
		Synthesis:     BuildSynthesizeResponse(&n.NormSynthesize, res),
		Gates:         nl.C.NumGates(),
		DFFs:          len(nl.C.DFFs),
		ScanRegs:      scanRegs,
		Coverage:      ares.Coverage,
		TGEffort:      ares.Effort,
		TestCycles:    ares.TestCycles,
		ATPGStatus:    ares.Status.String(),
		ATPGExhausted: ares.Exhausted,
		Fingerprint:   n.Fingerprint().String(),
	}
	// The embedded synthesis fingerprint would differ from the job's own;
	// pin both to the test-design fingerprint so the payload carries one
	// coherent identity.
	out.Synthesis.Fingerprint = out.Fingerprint
	if bres != nil {
		out.BIST = &BISTResponse{
			TPG: tpg, MISR: misr,
			TotalFaults: bres.TotalFaults, Detected: bres.Detected,
			Coverage: bres.Coverage, Cycles: bres.Cycles, Lanes: bres.Lanes,
			Status: bres.Status.String(), Exhausted: bres.Exhausted,
		}
	}
	return out
}

// NormTable is a normalized GET /v1/table/{bench} request.
type NormTable struct {
	Bench  string
	Widths []int
	Seed   int64
	Faults int
}

// NormalizeTable validates the table request: the benchmark must exist
// (probed at the narrowest width) and the widths must each pass the
// facade's width validation.
func NormalizeTable(bench, widthsCSV, seedStr, faultsStr string) (*NormTable, error) {
	n := &NormTable{Bench: bench, Seed: 1998, Faults: 300}
	if widthsCSV == "" {
		widthsCSV = "4,8,16"
	}
	for _, f := range strings.Split(widthsCSV, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad width %q", f)
		}
		n.Widths = append(n.Widths, w)
	}
	if seedStr != "" {
		s, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", seedStr)
		}
		n.Seed = s
	}
	if faultsStr != "" {
		f, err := strconv.Atoi(faultsStr)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad faults %q", faultsStr)
		}
		n.Faults = f
	}
	for _, w := range n.Widths {
		if _, err := hlts.LoadBenchmark(bench, w); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Fingerprint canonically hashes the table request and the ATPG output
// version.
func (n *NormTable) Fingerprint() core.Fingerprint {
	h := core.NewHasher()
	h.Str("v1/table")
	h.Int(atpgOutputVersion)
	h.Str(n.Bench)
	h.Int(len(n.Widths))
	for _, w := range n.Widths {
		h.Int(w)
	}
	h.U64(uint64(n.Seed))
	h.Int(n.Faults)
	return h.Sum()
}

// TableResponse is the body of a successful /v1/table call.
type TableResponse struct {
	Table       *hlts.Table `json:"table"`
	Rendered    string      `json:"rendered"`
	Partial     bool        `json:"partial,omitempty"`
	Fingerprint string      `json:"fingerprint"`
}

// BuildTableResponse derives the response payload.
func BuildTableResponse(n *NormTable, tbl *hlts.Table) TableResponse {
	return TableResponse{Table: tbl, Rendered: tbl.Render(), Partial: tbl.Partials() > 0, Fingerprint: n.Fingerprint().String()}
}

// Job kinds name the /v1 job endpoints. A kind is also the <kind> of the
// server.http.<kind>.* and cluster.http.<kind>.* metrics.
const (
	KindSynthesize = "synthesize"
	KindTestDesign = "testdesign"
	KindTable      = "table"
)

// Endpoints is the /v1 job surface: the mux pattern of each kind. hltsd
// serves it and hltsc proxies it, so a client cannot tell them apart.
var Endpoints = [...]struct{ Pattern, Kind string }{
	{"POST /v1/synthesize", KindSynthesize},
	{"POST /v1/testdesign", KindTestDesign},
	{"GET /v1/table/{bench}", KindTable},
}

// Request is one /v1 job request as the serving edge read it.
type Request struct {
	Kind string
	// Norm is the normalized request: *NormSynthesize, *NormTestDesign or
	// *NormTable, by Kind.
	Norm any
	// FP is Norm's fingerprint, the key of coalescing, the result cache,
	// the store and cluster placement.
	FP core.Fingerprint
	// DeadlineMS is the request's deadline_ms (0 = none).
	DeadlineMS int
	// Body is the POST body as read (nil for a table request): the bytes
	// a coordinator forwards verbatim.
	Body []byte
}

// Budget is the request's computation budget under a server cap: its
// deadline_ms when set and tighter than max, else max.
func (q *Request) Budget(max time.Duration) time.Duration {
	if q.DeadlineMS > 0 && int64(q.DeadlineMS) < max.Milliseconds() {
		return time.Duration(q.DeadlineMS) * time.Millisecond
	}
	return max
}

// ReadRequest is the serving edge of every /v1 job endpoint, shared by
// hltsd and hltsc so that both answer and fingerprint a request alike. It
// reads the body (capped at maxBody and strictly decoded) or the table
// path and query, normalizes the request and parses its deadline. On
// failure it returns the status to answer — 413 for a body over the cap,
// 404 for an unknown table benchmark, 400 otherwise — and the error.
func ReadRequest(w http.ResponseWriter, r *http.Request, kind string, maxBody int64) (*Request, int, error) {
	q := &Request{Kind: kind}
	var status int
	var err error
	switch kind {
	case KindSynthesize:
		var req SynthesizeRequest
		if q.Body, status, err = ReadJSON(w, r, maxBody, &req); err != nil {
			return nil, status, err
		}
		q.DeadlineMS, err = req.DeadlineMS, q.set(req.Normalize())
	case KindTestDesign:
		var req TestDesignRequest
		if q.Body, status, err = ReadJSON(w, r, maxBody, &req); err != nil {
			return nil, status, err
		}
		q.DeadlineMS, err = req.DeadlineMS, q.set(req.Normalize())
	case KindTable:
		qv := r.URL.Query()
		err = q.set(NormalizeTable(r.PathValue("bench"), qv.Get("widths"), qv.Get("seed"), qv.Get("faults")))
		if errors.Is(err, hlts.ErrUnknownBenchmark) {
			return nil, http.StatusNotFound, err
		}
		if d := qv.Get("deadline_ms"); err == nil && d != "" {
			if ms, perr := strconv.Atoi(d); perr != nil || ms < 0 {
				err = fmt.Errorf("bad deadline_ms %q", d)
			} else {
				q.DeadlineMS = ms
			}
		}
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	return q, 0, nil
}

// set records a normalized request and its fingerprint.
func (q *Request) set(n interface{ Fingerprint() core.Fingerprint }, err error) error {
	if err == nil {
		q.Norm, q.FP = n, n.Fingerprint()
	}
	return err
}

// ReadJSON caps r's body at maxBody bytes, reads it whole and decodes it
// strictly into v, returning the bytes read. On failure it returns the
// status to answer (413 over the cap, else 400) and the error.
func ReadJSON(w http.ResponseWriter, r *http.Request, maxBody int64, v any) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, status, fmt.Errorf("bad request body: %w", err)
	}
	if err := decodeStrict(body, v); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	return body, 0, nil
}

// decodeStrict parses body as exactly one JSON value. Unknown fields are
// client errors (they are always typos — every knob has a default), and
// so is anything but whitespace after the value.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("data after the JSON value")
	}
	return nil
}

// ErrorBody is the uniform payload of every non-2xx answer of hltsd and
// hltsc.
type ErrorBody struct {
	Error string `json:"error"`
}

// errorJSON renders err as an ErrorBody payload.
func errorJSON(err error) []byte {
	body, _ := marshal(ErrorBody{Error: err.Error()}) // a string field always marshals
	return body
}

// WriteJSON answers status with v in the service's JSON framing; a value
// that fails to marshal answers a typed 500 instead.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshal(v)
	if err != nil {
		status, body = http.StatusInternalServerError, errorJSON(err)
	}
	writeBody(w, status, body)
}

// WriteError answers status with err as an ErrorBody.
func WriteError(w http.ResponseWriter, status int, err error) {
	writeBody(w, status, errorJSON(err))
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// marshal renders a response payload in the service's canonical JSON
// framing (compact encoding plus trailing newline).
func marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
