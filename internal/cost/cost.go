// Package cost estimates the hardware cost H of an ETPN data path (paper
// §4.2): H = Σ Area(V_i) + Σ Len(A_j) × Wid(A_j), where module and register
// areas come from a module library parameterized by bit width, connection
// lengths come from a simple connectivity-driven floorplan in the manner of
// Peng & Kuchcinski [14], and connection widths are the bit width times a
// weight factor. Multiplexers implied by the allocation are charged to
// their destination nodes. An Estimator computes H from a behaviour and
// its allocation, deriving the data path's wiring without building an
// ETPN design.
//
// Areas are in normalized units; the library preserves the relative cost
// structure of the paper's experiments (multiplier ≫ ALU ≈ adder >
// register > mux, multiplier quadratic in width).
package cost

import "fmt"

// Library supplies per-component area models.
type Library struct {
	// RegPerBit is the register area per bit.
	RegPerBit float64
	// AddPerBit is the adder/subtracter/ALU area per bit.
	AddPerBit float64
	// CmpPerBit is the comparator area per bit.
	CmpPerBit float64
	// LogicPerBit is the bitwise-logic unit area per bit.
	LogicPerBit float64
	// MulPerBit2 is the array-multiplier area per bit squared.
	MulPerBit2 float64
	// MuxPerBitInput is the multiplexer area per bit per extra input.
	MuxPerBitInput float64
	// WireWeight scales connection width (paper: bit width times a given
	// weighted factor).
	WireWeight float64
}

// DefaultLibrary returns the library used across the reproduction.
func DefaultLibrary() *Library {
	return &Library{
		RegPerBit:      8,
		AddPerBit:      24,
		CmpPerBit:      12,
		LogicPerBit:    8,
		MulPerBit2:     20,
		MuxPerBitInput: 4,
		WireWeight:     0.05,
	}
}

// ModuleArea returns the area of a functional module of the given class at
// the given bit width.
func (l *Library) ModuleArea(class string, width int) float64 {
	w := float64(width)
	switch class {
	case "*":
		return l.MulPerBit2 * w * w
	case "+", "-", "±":
		return l.AddPerBit * w
	case "<", ">", "==":
		return l.CmpPerBit * w
	case "&", "|", "^", "~", "mov", "logic":
		return l.LogicPerBit * w
	default:
		return l.AddPerBit * w
	}
}

// RegisterArea returns the area of a width-bit register, rounded so that
// no architecture may fuse it into the caller's sum (DESIGN.md §3a).
func (l *Library) RegisterArea(width int) float64 { return float64(l.RegPerBit * float64(width)) }

// MuxArea returns the area of an inputs-to-1 multiplexer at the given
// width; 0 or 1 inputs need no hardware.
func (l *Library) MuxArea(width, inputs int) float64 {
	if inputs <= 1 {
		return 0
	}
	// Rounded, so that no architecture may fuse it into the caller's sum
	// (DESIGN.md §3a).
	return float64(l.MuxPerBitInput * float64(width) * float64(inputs-1))
}

// Estimate is the cost breakdown of a design.
type Estimate struct {
	ModuleArea float64
	RegArea    float64
	MuxArea    float64
	WireArea   float64
	Total      float64
}

// String renders the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("total %.0f (modules %.0f, regs %.0f, muxes %.0f, wires %.0f)",
		e.Total, e.ModuleArea, e.RegArea, e.MuxArea, e.WireArea)
}
