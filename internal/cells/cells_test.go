package cells

import (
	"testing"

	"wcm3d/internal/netlist"
)

func TestDefault45nmValidates(t *testing.T) {
	lib := Default45nm()
	if err := lib.Validate(); err != nil {
		t.Fatalf("Default45nm invalid: %v", err)
	}
}

func TestValidateCatchesMissingCell(t *testing.T) {
	lib := Default45nm()
	delete(lib.ByType, netlist.GateXor)
	if err := lib.Validate(); err == nil {
		t.Error("missing XOR should fail validation")
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	lib := Default45nm()
	lib.ByType[netlist.GateAnd] = Params{InputCapFF: 1, DriveResKOhm: 0, IntrinsicPS: 1}
	if err := lib.Validate(); err == nil {
		t.Error("zero drive resistance should fail validation")
	}
	lib = Default45nm()
	lib.TSVCapFF = 0
	if err := lib.Validate(); err == nil {
		t.Error("zero TSV cap should fail validation")
	}
}

func TestOfUnknownTypeReturnsDefaults(t *testing.T) {
	lib := Default45nm()
	p := lib.Of(netlist.GateType(200))
	if p.DriveResKOhm <= 0 || p.InputCapFF <= 0 {
		t.Errorf("unknown type params unusable: %+v", p)
	}
}

func TestWireDelayMonotonic(t *testing.T) {
	lib := Default45nm()
	prev := -1.0
	for _, length := range []float64{0, 10, 50, 100, 500, 2000} {
		d := lib.WireDelayPS(length, 2.0)
		if d < prev {
			t.Errorf("wire delay not monotonic at %v µm: %v < %v", length, d, prev)
		}
		prev = d
	}
	if lib.WireDelayPS(0, 2.0) != 0 {
		t.Error("zero-length wire should have zero delay")
	}
}

func TestWireDelayScalesWithDrive(t *testing.T) {
	lib := Default45nm()
	weak := lib.WireDelayPS(100, 4.0)
	strong := lib.WireDelayPS(100, 1.0)
	if weak <= strong {
		t.Errorf("weaker driver must be slower: weak=%v strong=%v", weak, strong)
	}
}

func TestTSVHeavierThanGatePin(t *testing.T) {
	lib := Default45nm()
	if lib.TSVCapFF <= lib.Of(netlist.GateDFF).InputCapFF {
		t.Error("a TSV pad must present more capacitance than a gate pin")
	}
}

func TestWrapperCellCostlierThanMux(t *testing.T) {
	lib := Default45nm()
	if lib.WrapperCellAreaUM2 <= lib.ScanMuxAreaUM2 {
		t.Error("the whole premise of reuse: wrapper cell must cost more area than a scan mux")
	}
}

func TestDriverWireCapBounded(t *testing.T) {
	lib := Default45nm()
	seg := lib.TestBufferDistUM
	short := lib.DriverWireCapFF(seg / 3)
	if short != lib.WireCapFF(seg/3) {
		t.Error("short wires present their full capacitance")
	}
	capAt2seg := lib.DriverWireCapFF(2 * seg)
	capAt9seg := lib.DriverWireCapFF(9 * seg)
	if capAt2seg != capAt9seg {
		t.Errorf("driver cap must saturate at one segment: %v vs %v", capAt2seg, capAt9seg)
	}
	if capAt2seg > lib.WireCapFF(seg)+5 {
		t.Errorf("saturated driver cap %v far above one segment %v", capAt2seg, lib.WireCapFF(seg))
	}
	// Without a repeater spacing the driver sees the whole wire.
	lib.TestBufferDistUM = 0
	if lib.DriverWireCapFF(500) != lib.WireCapFF(500) {
		t.Error("zero spacing must disable cap saturation")
	}
}
