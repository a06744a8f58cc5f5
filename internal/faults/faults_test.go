package faults

import (
	"strings"
	"testing"

	"wcm3d/internal/netlist"
)

func mk(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ParseString("f", src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCollapsedListSingleFanout(t *testing.T) {
	// a -> NOT -> z. Single-fanout everywhere: only output faults.
	n := mk(t, "INPUT(a)\nz = NOT(a)\nOUTPUT(z)\n")
	list := CollapsedList(n)
	// 2 signals x 2 output faults = 4; no pin faults.
	if len(list) != 4 {
		t.Fatalf("collapsed list = %d faults, want 4: %v", len(list), list)
	}
	for _, f := range list {
		if f.Pin != OutputPin {
			t.Errorf("unexpected pin fault %v on single-fanout circuit", f)
		}
	}
}

func TestCollapsedListPortBranch(t *testing.T) {
	// a drives one gate pin and one output port: two branches, so the
	// pin fault is not wire-equivalent to a's output fault and is kept.
	// b drives only the pin, which therefore gets no fault.
	n := mk(t, `
INPUT(a)
INPUT(b)
x = AND(a, b)
OUTPUT(x)
OUTPUT(a)
`)
	xID, _ := n.SignalByName("x")
	var pins []Fault
	for _, f := range CollapsedList(n) {
		if f.Pin != OutputPin {
			pins = append(pins, f)
		}
	}
	want := Fault{Gate: xID, Pin: 0, StuckAt: 1}
	if len(pins) != 1 || pins[0] != want {
		t.Errorf("pin faults = %v, want [%v] (s-a-1 on the pin a drives)", pins, want)
	}
}

func TestCollapsedListBranchFaults(t *testing.T) {
	// a fans out to an AND and an OR: branch pin faults appear, and only
	// the non-controlling polarity for AND/OR.
	n := mk(t, `
INPUT(a)
INPUT(b)
x = AND(a, b)
y = OR(a, b)
OUTPUT(x)
OUTPUT(y)
`)
	list := CollapsedList(n)
	aID, _ := n.SignalByName("a")
	bID, _ := n.SignalByName("b")
	xID, _ := n.SignalByName("x")
	yID, _ := n.SignalByName("y")
	var andPin, orPin []Fault
	for _, f := range list {
		if f.Pin == OutputPin {
			continue
		}
		switch f.Gate {
		case xID:
			andPin = append(andPin, f)
		case yID:
			orPin = append(orPin, f)
		}
	}
	// Both a and b are multi-fanout (a: AND+OR, b: AND+OR), so both pins
	// of each gate contribute exactly one fault: s-a-1 on AND pins,
	// s-a-0 on OR pins.
	if len(andPin) != 2 {
		t.Fatalf("AND pin faults = %v, want 2", andPin)
	}
	for _, f := range andPin {
		if f.StuckAt != 1 {
			t.Errorf("AND pin fault %v: want s-a-1 only (s-a-0 is output-equivalent)", f)
		}
	}
	if len(orPin) != 2 {
		t.Fatalf("OR pin faults = %v, want 2", orPin)
	}
	for _, f := range orPin {
		if f.StuckAt != 0 {
			t.Errorf("OR pin fault %v: want s-a-0 only", f)
		}
	}
	_ = aID
	_ = bID
}

func TestCollapsedListXorKeepsBoth(t *testing.T) {
	n := mk(t, `
INPUT(a)
INPUT(b)
x = XOR(a, b)
y = AND(a, b)
OUTPUT(x)
OUTPUT(y)
`)
	xID, _ := n.SignalByName("x")
	cnt := 0
	for _, f := range CollapsedList(n) {
		if f.Gate == xID && f.Pin != OutputPin {
			cnt++
		}
	}
	if cnt != 4 {
		t.Errorf("XOR pin faults = %d, want 4 (both polarities, both pins)", cnt)
	}
}

func TestCollapsedListInverterNoPinFaults(t *testing.T) {
	n := mk(t, `
INPUT(a)
x = NOT(a)
y = NOT(a)
OUTPUT(x)
OUTPUT(y)
`)
	for _, f := range CollapsedList(n) {
		if f.Pin != OutputPin {
			t.Errorf("inverter contributed pin fault %v", f)
		}
	}
}

func TestFaultStrings(t *testing.T) {
	n := mk(t, "INPUT(a)\nINPUT(b)\nz1 = AND(a, b)\nz2 = OR(a, b)\nOUTPUT(z1)\nOUTPUT(z2)\n")
	z, _ := n.SignalByName("z1")
	f := Fault{Gate: z, Pin: OutputPin, StuckAt: 1}
	if !strings.Contains(f.Describe(n), "z1/out s-a-1") {
		t.Errorf("Describe = %q", f.Describe(n))
	}
	f2 := Fault{Gate: z, Pin: 0, StuckAt: 1}
	if !strings.Contains(f2.Describe(n), "(a)") {
		t.Errorf("Describe = %q", f2.Describe(n))
	}
	if !strings.Contains(f.String(), "s-a-1") {
		t.Errorf("String = %q", f.String())
	}
}

func TestTransitionEquivalent(t *testing.T) {
	str := TransitionFault{Gate: 3, SlowToRise: true}
	eq := str.Equivalent()
	if eq.StuckAt != 0 || eq.Pin != OutputPin || eq.Gate != 3 {
		t.Errorf("slow-to-rise should map to s-a-0: %v", eq)
	}
	if str.InitialValue() != 0 {
		t.Error("slow-to-rise initial value must be 0")
	}
	stf := TransitionFault{Gate: 3, SlowToRise: false}
	if stf.Equivalent().StuckAt != 1 || stf.InitialValue() != 1 {
		t.Error("slow-to-fall must map to s-a-1 with initial 1")
	}
	if stf.String() != "#3 STF" || str.String() != "#3 STR" {
		t.Errorf("String: %q %q", stf, str)
	}
}

func TestTransitionListSize(t *testing.T) {
	n := mk(t, "INPUT(a)\nz = NOT(a)\nOUTPUT(z)\n")
	if got := len(TransitionList(n)); got != 4 {
		t.Errorf("transition list = %d, want 4", got)
	}
}

func TestCollapsedListDeterministicAndComplete(t *testing.T) {
	// The universe is a pure function of the netlist, and every gate
	// output contributes exactly two faults.
	n := mk(t, `
INPUT(a)
INPUT(b)
INPUT(c)
x = AND(a, b)
y = OR(x, c)
z = XOR(x, y)
q = DFF(z)
OUTPUT(o) = z
`)
	l1 := CollapsedList(n)
	l2 := CollapsedList(n)
	if len(l1) != len(l2) {
		t.Fatal("non-deterministic universe size")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("non-deterministic universe order")
		}
	}
	outFaults := 0
	for _, f := range l1 {
		if f.Pin == OutputPin {
			outFaults++
		}
	}
	if outFaults != 2*n.NumGates() {
		t.Errorf("output faults = %d, want %d", outFaults, 2*n.NumGates())
	}
}

func TestCollapsedListDFFBranchFaults(t *testing.T) {
	// A multi-fanout net feeding a DFF D pin: the net's branch into the
	// D pin contributes no extra pin faults (the D pin is treated like a
	// buffer input), but branches into XOR gates do.
	n := mk(t, `
INPUT(a)
INPUT(b)
x = AND(a, b)
q = DFF(x)
y = XOR(x, b)
OUTPUT(o) = y
OUTPUT(p) = q
`)
	xID, _ := n.SignalByName("x")
	yID, _ := n.SignalByName("y")
	qID, _ := n.SignalByName("q")
	for _, f := range CollapsedList(n) {
		if f.Pin == OutputPin {
			continue
		}
		switch f.Gate {
		case yID:
			// expected: x and b are both multi-fanout
		case qID:
			t.Errorf("unexpected DFF pin fault %v", f)
		case xID:
			// a, b feed x; b is multi-fanout so a pin fault is fine
		}
	}
}
