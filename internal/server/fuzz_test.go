package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// normalizeBody is the handlers' path from body bytes to a fingerprint:
// the strict decode, then Normalize.
func normalizeBody[R interface{ Normalize() (N, error) }, N interface{ Fingerprint() core.Fingerprint }](body []byte) (core.Fingerprint, error) {
	var req R
	if err := decodeStrict(body, &req); err != nil {
		return core.Fingerprint{}, err
	}
	n, err := req.Normalize()
	if err != nil {
		return core.Fingerprint{}, err
	}
	return n.Fingerprint(), nil
}

// FuzzRequestNormalize posts arbitrary bodies to both POST endpoints of
// a drained server, so no job ever runs. A body the handler rejects must
// answer a typed 400 (or 413) JSON error; a body it accepts reaches
// admission and bounces off the drain with a 503. The verdict must agree
// with decoding and normalizing the body directly, and every accepted
// body must normalize twice to the same fingerprint. The same bytes, as
// the raw query of GET /v1/table/ex, must answer a typed 400 or 404, or a
// 503 for a query ReadRequest accepts twice with one fingerprint.
func FuzzRequestNormalize(f *testing.F) {
	for _, body := range []string{
		`{"bench":"ex","width":4}`,
		`{"bench":"diffeq","width":8,"method":"camad","k":2,"alpha":1.5,"beta":0,"slack":1,"loop":"exit","deadline_ms":5}`,
		`{"bench":"gen:s7-o24-mmixed-hmesh-f2-i4-c2","width":4}`,
		`{"vhdl":"entity e is port (x : in integer; z : out integer); end entity; architecture b of e is begin process (x) begin z <= x + 1; end process; end architecture;","width":4}`,
		`{"bench":"ex","width":4,"seed":3,"faults":120,"scan":1,"test_mode":true,"bist":{"tpg":1,"misr":1,"cycles":10,"lanes":2}}`,
		`{"bench":"ex","width":4,"bist":{"tpg":0,"misr":0}}`,
		`{"bench":"ex","width":0}`,
		`{"bench":"ex","vhdl":"x","width":4}`,
		`{"bench":"nope","width":4}`,
		`{"bench":"gen:s1-o99999","width":4}`,
		`{"bench":"ex","width":4,"typo":1}`,
		`{"bench":"ex","width":4,"faults":-1}`,
		`{"bench":"ex","width":"4"}`,
		`{"bench":"ex","width":4} trailing`,
		`[`, ``, `null`,
		`widths=4&faults=60`,
		`widths=4,8&seed=7&faults=0&deadline_ms=5`,
		`widths=0`, `widths=4,,8`, `seed=x`, `faults=-1`, `deadline_ms=-5`, `deadline_ms=99999999999999999999`, `widths=%zz`,
	} {
		f.Add([]byte(body))
	}
	s := New(Config{QueueDepth: 1, Jobs: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	endpoints := []struct {
		path      string
		normalize func([]byte) (core.Fingerprint, error)
	}{
		{"/v1/synthesize", normalizeBody[SynthesizeRequest, *NormSynthesize]},
		{"/v1/testdesign", normalizeBody[TestDesignRequest, *NormTestDesign]},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range endpoints {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
			fp, err := ep.normalize(body)
			switch rec.Code {
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
				var eb ErrorBody
				if json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
					t.Fatalf("%s: untyped %d body %q", ep.path, rec.Code, rec.Body)
				}
				if err == nil {
					t.Fatalf("%s: handler answered %d to a body that normalizes: %s", ep.path, rec.Code, rec.Body)
				}
			case http.StatusServiceUnavailable:
				if err != nil {
					t.Fatalf("%s: handler admitted a body that fails to normalize: %v", ep.path, err)
				}
				if again, err := ep.normalize(body); err != nil || again != fp {
					t.Fatalf("%s: second normalization gave %s, %v; first %s", ep.path, again, err, fp)
				}
			default:
				t.Fatalf("%s answered %d: %s", ep.path, rec.Code, rec.Body)
			}
		}

		tableReq := func() *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/v1/table/ex", nil)
			r.URL.RawQuery = string(body)
			return r
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, tableReq())
		direct := func() (*Request, int, error) {
			r := tableReq()
			r.SetPathValue("bench", "ex")
			return ReadRequest(httptest.NewRecorder(), r, KindTable, 1<<20)
		}
		q, status, err := direct()
		switch rec.Code {
		case http.StatusBadRequest, http.StatusNotFound:
			var eb ErrorBody
			if json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
				t.Fatalf("table ?%s: untyped %d body %q", body, rec.Code, rec.Body)
			}
			if err == nil || status != rec.Code {
				t.Fatalf("table ?%s: handler answered %d, ReadRequest %d (%v)", body, rec.Code, status, err)
			}
		case http.StatusServiceUnavailable:
			if err != nil {
				t.Fatalf("table ?%s: handler admitted a query ReadRequest refuses: %v", body, err)
			}
			if again, _, err := direct(); err != nil || again.FP != q.FP {
				t.Fatalf("table ?%s: second read gave %v, %v; first %s", body, again, err, q.FP)
			}
		default:
			t.Fatalf("table ?%s answered %d: %s", body, rec.Code, rec.Body)
		}
	})
}
