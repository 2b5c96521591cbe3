// replicate.go is the worker-side wire surface of peer-to-peer store
// replication (DESIGN.md §4j): two small endpoints under /store/v1/
// that expose the persistent store's digest and its append-order delta
// stream — everything a peer's anti-entropy loop needs. Every payload
// is capped and CRC-verified end to end: a record travels with a
// CRC-32C over (fingerprint‖value) computed by the sender and
// re-checked by the receiver before the bytes are trusted, on top of
// the store's own per-record checksum at both ends.
//
// The endpoints answer 404 with a typed body when the daemon runs
// without a store — replication is an opt-in property of -store mode,
// not a failure.
package server

import (
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/store"
)

// Pull batch caps: a /store/v1/pull response carries at most
// pullMaxRecords records and pullMaxBytes of value bytes (whichever is
// hit first), so one exchange is always bounded whatever the store
// holds.
const (
	pullMaxRecords     = 1024
	pullDefaultRecords = 256
	pullMaxBytes       = 4 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RecordCRC is the transport checksum of one replicated record:
// CRC-32C over the fingerprint bytes then the value bytes, so a record
// whose key and value were swapped between peers is rejected, not
// stored under the wrong name.
func RecordCRC(fp core.Fingerprint, val []byte) uint32 {
	c := crc32.Update(0, crcTable, fp[:])
	return crc32.Update(c, crcTable, val)
}

// WireCursor is a store.Cursor on the wire.
type WireCursor struct {
	Gen uint64 `json:"gen"`
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Cursor converts to the store's type.
func (c WireCursor) Cursor() store.Cursor { return store.Cursor{Gen: c.Gen, Seg: c.Seg, Off: c.Off} }

func toWireCursor(c store.Cursor) WireCursor { return WireCursor{Gen: c.Gen, Seg: c.Seg, Off: c.Off} }

// DigestResponse is the GET /store/v1/digest body.
type DigestResponse struct {
	Gen     uint64     `json:"gen"`
	Records int        `json:"records"`
	XorFP   string     `json:"xor_fp"` // hex
	End     WireCursor `json:"end"`
}

// WireRecord is one replicated record: hex fingerprint, base64 value
// (encoding/json's []byte convention) and the transport CRC.
type WireRecord struct {
	FP  string `json:"fp"`
	Val []byte `json:"val"`
	CRC uint32 `json:"crc"`
}

// PullResponse is the GET /store/v1/pull body: one bounded batch of the
// delta stream plus the cursor to resume from.
type PullResponse struct {
	Records []WireRecord `json:"records"`
	Next    WireCursor   `json:"next"`
	More    bool         `json:"more"`
}

// EncodeWireRecord frames a record for transport.
func EncodeWireRecord(fp core.Fingerprint, val []byte) WireRecord {
	return WireRecord{FP: fp.String(), Val: val, CRC: RecordCRC(fp, val)}
}

// DecodeWireRecord validates a received record: fingerprint shape and
// transport CRC. The returned value aliases the wire buffer.
func DecodeWireRecord(r WireRecord) (core.Fingerprint, []byte, error) {
	var fp core.Fingerprint
	raw, err := hex.DecodeString(r.FP)
	if err != nil || len(raw) != len(fp) {
		return fp, nil, fmt.Errorf("replicate: bad fingerprint %q", r.FP)
	}
	copy(fp[:], raw)
	if RecordCRC(fp, r.Val) != r.CRC {
		return fp, nil, fmt.Errorf("replicate: record %s failed transport CRC", r.FP)
	}
	return fp, r.Val, nil
}

// writeJSON is the small-response helper of the /store/v1/ handlers.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := marshal(v)
	if err != nil {
		body, _ = marshal(errorBody{Error: err.Error()})
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// storeRequired answers the no-store case once for both handlers.
func (s *Server) storeRequired(w http.ResponseWriter) bool {
	if s.cfg.Store != nil {
		return false
	}
	s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no persistent store attached"})
	return true
}

func (s *Server) handleStoreDigest(w http.ResponseWriter, r *http.Request) {
	if s.storeRequired(w) {
		return
	}
	d := s.cfg.Store.Digest()
	s.writeJSON(w, http.StatusOK, DigestResponse{
		Gen:     d.Gen,
		Records: d.Records,
		XorFP:   hex.EncodeToString(d.XorFP[:]),
		End:     toWireCursor(d.End),
	})
}

func (s *Server) handleStorePull(w http.ResponseWriter, r *http.Request) {
	if s.storeRequired(w) {
		return
	}
	qv := r.URL.Query()
	var c store.Cursor
	var err error
	if c.Gen, err = parseUint(qv.Get("gen")); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad gen: " + err.Error()})
		return
	}
	if c.Seg, err = parseUint(qv.Get("seg")); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad seg: " + err.Error()})
		return
	}
	off, err := parseUint(qv.Get("off"))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad off: " + err.Error()})
		return
	}
	c.Off = int64(off)
	max := pullDefaultRecords
	if m := qv.Get("max"); m != "" {
		mv, err := strconv.Atoi(m)
		if err != nil || mv < 1 {
			s.writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad max %q", m)})
			return
		}
		if max = mv; max > pullMaxRecords {
			max = pullMaxRecords
		}
	}
	recs, next, more := s.cfg.Store.Since(c, max, pullMaxBytes)
	resp := PullResponse{Records: make([]WireRecord, 0, len(recs)), Next: toWireCursor(next), More: more}
	for _, rec := range recs {
		resp.Records = append(resp.Records, EncodeWireRecord(rec.FP, rec.Val))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func parseUint(v string) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.ParseUint(v, 10, 64)
}
