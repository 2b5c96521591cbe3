package server

import (
	"os"
	"testing"

	hlts "repro"
	"repro/internal/core"
)

// TestRequestFingerprintGoldens pins the request fingerprints of each /v1
// endpoint. A fingerprint keys every -store record, so a changed encoding
// would silently turn every existing store cold. The synthesize values
// were computed before the canonical hasher was rewritten and must never
// move; the testdesign and table values move only with a bump of
// atpgOutputVersion.
func TestRequestFingerprintGoldens(t *testing.T) {
	vhdl, err := os.ReadFile("../../testdata/diffeq.vhd")
	if err != nil {
		t.Fatal(err)
	}
	gen := hlts.GenSpec{Seed: 41, Ops: 12}.Name()
	loop := hlts.GenSpec{Seed: 42, Ops: 14, Mix: "diffeq", Shape: "wide", Loop: true}.Name()
	synth := func(r SynthesizeRequest) func() (core.Fingerprint, error) {
		return func() (core.Fingerprint, error) {
			n, err := r.Normalize()
			if err != nil {
				return core.Fingerprint{}, err
			}
			return n.Fingerprint(), nil
		}
	}
	cases := []struct {
		name string
		fp   func() (core.Fingerprint, error)
		want string
	}{
		{"synthesize/ex-4", synth(SynthesizeRequest{Bench: "ex", Width: 4}), "cc732f09b8166f6ba2ae0fda24f1f41a"},
		{"synthesize/" + gen, synth(SynthesizeRequest{Bench: gen, Width: 4}), "a79f3584b19a17c24bd6cbf61f422e15"},
		{"synthesize/" + loop, synth(SynthesizeRequest{Bench: loop, Width: 8}), "7e8fcff929c3e1bda14cc849f9235cf1"},
		{"synthesize/diffeq.vhd", synth(SynthesizeRequest{VHDL: string(vhdl), Width: 4}), "40fce73276b800c7a48d17988da95832"},
		{"testdesign/ex-4-bist", func() (core.Fingerprint, error) {
			r := TestDesignRequest{
				SynthesizeRequest: SynthesizeRequest{Bench: "ex", Width: 4},
				Faults:            300, BIST: &BISTRequest{TPG: 2, MISR: 2},
			}
			n, err := r.Normalize()
			if err != nil {
				return core.Fingerprint{}, err
			}
			return n.Fingerprint(), nil
		}, "adc0406d14ffedd0bd7f114fcf9b6d75"},
		{"table/dct", func() (core.Fingerprint, error) {
			n, err := NormalizeTable("dct", "4,8", "1998", "300")
			if err != nil {
				return core.Fingerprint{}, err
			}
			return n.Fingerprint(), nil
		}, "7f52419533431e6a7f2b19ce0f1209e3"},
	}
	for _, c := range cases {
		fp, err := c.fp()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fp.String(); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}
