// replicate.go is the worker-side wire surface of peer-to-peer store
// replication (DESIGN.md §4j): one endpoint, GET /store/v1/pull, that
// exposes the persistent store's append-order delta stream — everything
// a peer's anti-entropy loop needs. A batch carries the store's own
// record frames, byte for byte as they lie on disk (magic, lengths,
// CRC-32C over lengths‖key‖value), so a record is checked by the same
// frame parser when the sender reads it, when the receiver decodes it
// (store.DecodeFrames) and when the receiver's store replays it. Every
// batch is capped in records and value bytes.
//
// The endpoint answers 404 with a typed body when the daemon runs
// without a store — replication is an opt-in property of -store mode,
// not a failure.
package server

import (
	"fmt"
	"net/http"
	"strconv"

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

// PullResponse is the GET /store/v1/pull body: one bounded batch of the
// delta stream — record frames back to back, base64 in JSON — plus the
// cursor to resume from.
type PullResponse struct {
	Frames []byte       `json:"frames"`
	Next   store.Cursor `json:"next"`
	More   bool         `json:"more"`
}

// writeJSON is the small-response helper of the /store/v1/pull handler.
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

func (s *Server) handleStorePull(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "no persistent store attached"})
		return
	}
	qv := r.URL.Query()
	var c store.Cursor
	var err error
	if c.Gen, err = parseUint(qv.Get("gen"), 64); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad gen: " + err.Error()})
		return
	}
	if c.Seg, err = parseUint(qv.Get("seg"), 64); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad seg: " + err.Error()})
		return
	}
	// Off is an int64: 63 bits keeps 2^63 and above from wrapping negative.
	off, err := parseUint(qv.Get("off"), 63)
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
	frames, next, more := s.cfg.Store.Since(c, max, pullMaxBytes)
	s.writeJSON(w, http.StatusOK, PullResponse{Frames: frames, Next: next, More: more})
}

func parseUint(v string, bits int) (uint64, error) {
	if v == "" {
		return 0, nil
	}
	return strconv.ParseUint(v, 10, bits)
}
