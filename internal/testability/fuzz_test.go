package testability

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dfggen"
	"repro/internal/etpn"
	"repro/internal/sched"
)

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// encodeSpec is the fuzz encoding of a generator spec at a width: the
// inverse of the first 13 bytes FuzzAnalyzeWiring decodes.
func encodeSpec(s dfggen.Spec, width int) []byte {
	mix, shape := 0, 0
	for i, m := range dfggen.Mixes() {
		if m == s.Mix {
			mix = i
		}
	}
	for i, sh := range dfggen.Shapes() {
		if sh == s.Shape {
			shape = i
		}
	}
	flags := byte(0)
	if s.Loop {
		flags |= 1
	}
	if s.Cond {
		flags |= 2
	}
	if width == 8 {
		flags |= 4
	}
	b := []byte{byte(s.Ops - 4), byte(mix), byte(shape), byte(s.Fanout - 1), flags}
	return binary.LittleEndian.AppendUint64(b, s.Seed)
}

// FuzzAnalyzeWiring decodes a generator spec of 4–24 operations at width
// 4 or 8, an allocation reached from the one-to-one allocation of its ASAP
// schedule by up to eight module and register merges that Verify accepts,
// and a set of scan registers. Analyze on the built design, and
// AnalyzeWiring on a wiring re-derived over another data path's arrays,
// must both be bit-identical to the design-based reference. The corpus
// holds the GenMix specs.
func FuzzAnalyzeWiring(f *testing.F) {
	mixes, shapes := dfggen.Mixes(), dfggen.Shapes()
	for i := 0; i < 20; i++ {
		spec := dfggen.Spec{
			Seed: 0x5E11 + uint64(i), Ops: 12 + i%8,
			Mix: mixes[i%len(mixes)], Shape: shapes[(i/6)%len(shapes)],
			Fanout: 1 + (i/3)%4, Loop: i%5 == 0,
		}
		f.Add(append(encodeSpec(spec, 4), 0x10, 0, 1, 0x11, 0, 1, 0x20, 2, 3, 0x21, 1, 2, 0x55))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		spec := dfggen.Spec{Ops: 4 + int(in.next())%21}
		spec.Mix = mixes[int(in.next())%len(mixes)]
		spec.Shape = shapes[int(in.next())%len(shapes)]
		spec.Fanout = 1 + int(in.next())%4
		flags := in.next()
		spec.Loop, spec.Cond = flags&1 != 0, flags&2 != 0
		width := 4
		if flags&4 != 0 {
			width = 8
		}
		for i := 0; i < 8; i++ {
			spec.Seed |= uint64(in.next()) << (8 * i)
		}
		g, err := dfggen.Generate(spec, width)
		if err != nil {
			t.Skip(err)
		}
		s, err := sched.NewProblem(g).ASAP()
		if err != nil {
			t.Skip(err)
		}
		life := alloc.Lifetimes(g, s)
		one := alloc.Default(g, sched.ExactClass, life)
		a := one
		for step := 0; step < 8; step++ {
			op := in.next()
			i, j := int(in.next()), int(in.next())
			c := a.Clone()
			if op&1 == 0 {
				if n := len(c.Modules); n < 2 || c.MergeModules(i%n, j%n) != nil {
					continue
				}
			} else if n := len(c.Regs); n < 2 || c.MergeRegs(i%n, j%n) != nil {
				continue
			}
			if c.Verify(g, s, sched.ExactClass, life) == nil {
				a = c
			}
		}
		d, err := etpn.Build(g, s, a, life, g.Loop)
		if err != nil {
			t.Skip(err)
		}
		scan := map[int]bool{}
		var bits byte
		for k, r := range a.Regs {
			if k%8 == 0 {
				bits = in.next()
			}
			if bits&(1<<(k%8)) != 0 {
				scan[d.RegNode(r.ID)] = true
			}
		}
		want := refAnalyze(d, scan)
		var w etpn.Wiring
		if err := w.Derive(g, s, one, life, g.Loop); err != nil {
			t.Fatal(err)
		}
		w.Index()
		if err := w.Derive(g, s, a, life, g.Loop); err != nil {
			t.Fatal(err)
		}
		w.Index()
		for _, got := range []*Metrics{Analyze(d, scan), AnalyzeWiring(&w, scan)} {
			for id := range d.Nodes {
				for _, pair := range [][2][]float64{{got.CC, want.CC}, {got.SC, want.SC}, {got.CO, want.CO}, {got.SO, want.SO}} {
					if math.Float64bits(pair[0][id]) != math.Float64bits(pair[1][id]) {
						t.Fatalf("%s node %s: (CC, SC, CO, SO) = (%v, %v, %v, %v), reference (%v, %v, %v, %v)",
							g.Name, d.Nodes[id].Name, got.CC[id], got.SC[id], got.CO[id], got.SO[id],
							want.CC[id], want.SC[id], want.CO[id], want.SO[id])
					}
				}
			}
		}
	})
}
