// Package cells provides the technology library consumed by the static
// timing analyzer and the wrapper-cell flow: per-cell input capacitance,
// drive resistance and intrinsic delay, plus the interconnect RC constants
// used to turn placement distance into wire delay.
//
// The numbers are calibrated to a generic 45 nm standard-cell process
// (NanGate-class open library): gate input capacitances around 1-2 fF,
// drive resistances of a few kΩ, intrinsic delays of a few tens of
// picoseconds, and wire parasitics around 0.2 fF/µm and 1 Ω/µm. Absolute
// values only need to be mutually consistent — every experiment in the
// paper compares methods under the *same* library.
package cells

import (
	"fmt"

	"wcm3d/internal/netlist"
)

// Params holds the timing-relevant characterization of one cell type.
type Params struct {
	// InputCapFF is the capacitance of one input pin, in femtofarads.
	InputCapFF float64
	// DriveResKOhm is the equivalent output drive resistance, in kΩ.
	// Load-dependent delay is DriveResKOhm × C_load (kΩ·fF = ps).
	DriveResKOhm float64
	// IntrinsicPS is the fixed parasitic delay of the cell, in
	// picoseconds.
	IntrinsicPS float64
}

// Library is a complete technology characterization. The zero value is not
// usable; construct with Default45nm or build explicitly.
type Library struct {
	// Name identifies the library in reports.
	Name string
	// ByType maps each gate type to its parameters.
	ByType map[netlist.GateType]Params

	// dense mirrors ByType as a direct-indexed table so Of costs an array
	// load instead of a map probe — it sits on the inner edge loops of the
	// timing analyzer. Built by Seal; a library that was never sealed (or
	// whose ByType was mutated after sealing without re-Sealing) falls back
	// to the map.
	dense  []Params
	known  []bool
	sealed bool

	// WireCapPerUM is interconnect capacitance in fF per µm of Manhattan
	// length.
	WireCapPerUM float64
	// WireResPerUM is interconnect resistance in kΩ per µm.
	WireResPerUM float64

	// TSVCapFF is the parasitic capacitance a TSV landing pad presents,
	// in fF. TSVs are far heavier than gate pins (micrometer-scale
	// copper pillars).
	TSVCapFF float64

	// TestBufferDistUM is the repeater spacing the DFT editor uses when
	// a wrapper plan requests buffered test routing: a test-distribution
	// wire longer than this gets a buffer, bounding the capacitive load
	// any single driver sees to one segment.
	TestBufferDistUM float64

	// ScanMuxOverheadPS is the extra delay a test-mode multiplexer
	// inserted on a functional path costs (intrinsic + typical load),
	// used by the DFT editor's quick estimates; exact values come from
	// re-running STA on the edited netlist.
	ScanMuxOverheadPS float64

	// WrapperCellAreaUM2 and ScanMuxAreaUM2 quantify the area cost of a
	// dedicated wrapper cell versus the mux added when reusing a scan
	// flip-flop; the paper's motivation is that the former is ~6-8x the
	// latter.
	WrapperCellAreaUM2 float64
	ScanMuxAreaUM2     float64
}

// Default45nm returns the library used throughout the reproduction.
func Default45nm() *Library {
	l := &Library{
		Name: "generic45",
		ByType: map[netlist.GateType]Params{
			netlist.GateInput:  {InputCapFF: 0, DriveResKOhm: 1.0, IntrinsicPS: 0},
			netlist.GateTSVIn:  {InputCapFF: 0, DriveResKOhm: 1.5, IntrinsicPS: 0},
			netlist.GateConst0: {InputCapFF: 0, DriveResKOhm: 1.0, IntrinsicPS: 0},
			netlist.GateConst1: {InputCapFF: 0, DriveResKOhm: 1.0, IntrinsicPS: 0},
			netlist.GateBuf:    {InputCapFF: 1.2, DriveResKOhm: 1.6, IntrinsicPS: 18},
			netlist.GateNot:    {InputCapFF: 1.1, DriveResKOhm: 1.4, IntrinsicPS: 12},
			netlist.GateAnd:    {InputCapFF: 1.4, DriveResKOhm: 2.0, IntrinsicPS: 28},
			netlist.GateNand:   {InputCapFF: 1.3, DriveResKOhm: 1.8, IntrinsicPS: 20},
			netlist.GateOr:     {InputCapFF: 1.4, DriveResKOhm: 2.1, IntrinsicPS: 30},
			netlist.GateNor:    {InputCapFF: 1.3, DriveResKOhm: 1.9, IntrinsicPS: 22},
			netlist.GateXor:    {InputCapFF: 1.8, DriveResKOhm: 2.4, IntrinsicPS: 38},
			netlist.GateXnor:   {InputCapFF: 1.8, DriveResKOhm: 2.4, IntrinsicPS: 38},
			netlist.GateMux2:   {InputCapFF: 1.6, DriveResKOhm: 2.2, IntrinsicPS: 34},
			netlist.GateDFF:    {InputCapFF: 1.7, DriveResKOhm: 1.8, IntrinsicPS: 60},
		},
		TestBufferDistUM:   60,
		WireCapPerUM:       0.20,
		WireResPerUM:       0.0010,
		TSVCapFF:           25.0,
		ScanMuxOverheadPS:  40.0,
		WrapperCellAreaUM2: 15.0,
		ScanMuxAreaUM2:     2.2,
	}
	l.Seal()
	return l
}

// defaultParams are the conservative fallback for gate types the library
// does not characterize: the library is consulted deep inside timing
// loops, so unknown types degrade instead of panicking.
var defaultParams = Params{InputCapFF: 1.5, DriveResKOhm: 2.0, IntrinsicPS: 30}

// Seal builds the direct-indexed lookup table from ByType. Call it once
// after constructing or editing a library; Of reads the table without
// consulting the map afterwards.
func (l *Library) Seal() {
	max := 0
	for t := range l.ByType {
		if int(t) > max {
			max = int(t)
		}
	}
	l.dense = make([]Params, max+1)
	l.known = make([]bool, max+1)
	for t, p := range l.ByType {
		l.dense[t] = p
		l.known[t] = true
	}
	l.sealed = true
}

// Of returns the parameters for a gate type.
func (l *Library) Of(t netlist.GateType) Params {
	if l.sealed {
		if int(t) < len(l.dense) && l.known[t] {
			return l.dense[t]
		}
		return defaultParams
	}
	p, ok := l.ByType[t]
	if !ok {
		return defaultParams
	}
	return p
}

// WireDelayPS returns the Elmore-style delay of an unrepeatered wire of
// the given Manhattan length driven by a cell with drive resistance
// driveKOhm: R_drive·C_wire + R_wire·C_wire/2 (distributed RC).
func (l *Library) WireDelayPS(lengthUM, driveKOhm float64) float64 {
	cw := l.WireCapPerUM * lengthUM
	rw := l.WireResPerUM * lengthUM
	return driveKOhm*cw + rw*cw/2
}

// WireCapFF returns the capacitance of a wire of the given length.
func (l *Library) WireCapFF(lengthUM float64) float64 {
	return l.WireCapPerUM * lengthUM
}

// DriverWireCapFF returns the wire capacitance the DRIVER of a routed net
// sees: at most one repeater segment (plus the repeater's input pin) under
// the repeatered-interconnect model.
func (l *Library) DriverWireCapFF(lengthUM float64) float64 {
	seg := l.TestBufferDistUM
	if seg <= 0 || lengthUM <= seg {
		return l.WireCapPerUM * lengthUM
	}
	return l.WireCapPerUM*seg + l.Of(netlist.GateBuf).InputCapFF
}

// Validate checks the library is self-consistent (all gate types present,
// positive parameters).
func (l *Library) Validate() error {
	required := []netlist.GateType{
		netlist.GateInput, netlist.GateTSVIn, netlist.GateBuf, netlist.GateNot,
		netlist.GateAnd, netlist.GateNand, netlist.GateOr, netlist.GateNor,
		netlist.GateXor, netlist.GateXnor, netlist.GateMux2, netlist.GateDFF,
	}
	for _, t := range required {
		p, ok := l.ByType[t]
		if !ok {
			return fmt.Errorf("cells: library %q missing %s", l.Name, t)
		}
		if p.InputCapFF < 0 || p.DriveResKOhm <= 0 || p.IntrinsicPS < 0 {
			return fmt.Errorf("cells: library %q has invalid params for %s: %+v", l.Name, t, p)
		}
	}
	if l.WireCapPerUM <= 0 || l.WireResPerUM < 0 || l.TSVCapFF <= 0 {
		return fmt.Errorf("cells: library %q has invalid interconnect constants", l.Name)
	}
	return nil
}
