// Package atpg implements deterministic test-pattern generation — the
// other half of the reproduction's stand-in for a commercial ATPG tool.
// The flow is the classic industrial one:
//
//  1. a random-pattern phase with bit-parallel fault simulation and fault
//     dropping (internal/faultsim) picks off the easy faults;
//  2. a PODEM (path-oriented decision making) phase targets each remaining
//     fault with SCOAP-guided backtrace, event-driven five-valued
//     implication, and a backtrack budget;
//  3. an optional reverse-order compaction pass re-simulates the pattern
//     set with dropping and discards patterns that detect nothing new.
//
// Transition-delay faults are handled under the enhanced-scan two-pattern
// assumption: V1 justifies the initial value at the fault site, V2 is a
// stuck-at test for the slow value (see internal/faults).
package atpg

import "wcm3d/internal/netlist"

// V is a three-valued logic value.
type V uint8

// Three-valued constants. VX must be the zero value: fresh assignment
// arrays start all-X.
const (
	VX V = iota // unknown / unassigned
	V0
	V1
)

// String renders "X", "0" or "1".
func (v V) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	default:
		return "X"
	}
}

// Neg returns the complement; X stays X.
func (v V) Neg() V {
	switch v {
	case V0:
		return V1
	case V1:
		return V0
	default:
		return VX
	}
}

// FromBool converts a concrete bit.
func FromBool(b bool) V {
	if b {
		return V1
	}
	return V0
}

// evalGate3 computes the three-valued output of a gate of type t with the
// given fanin, reading fanin values through fn(pin).
func evalGate3(t netlist.GateType, fanin []netlist.SignalID, fn func(int) V) V {
	switch t {
	case netlist.GateBuf:
		return fn(0)
	case netlist.GateNot:
		return fn(0).Neg()
	case netlist.GateConst0:
		return V0
	case netlist.GateConst1:
		return V1
	case netlist.GateAnd, netlist.GateNand:
		out := V1
		for i := range fanin {
			switch fn(i) {
			case V0:
				out = V0
			case VX:
				if out == V1 {
					out = VX
				}
			}
			if out == V0 {
				break
			}
		}
		if t == netlist.GateNand {
			return out.Neg()
		}
		return out
	case netlist.GateOr, netlist.GateNor:
		out := V0
		for i := range fanin {
			switch fn(i) {
			case V1:
				out = V1
			case VX:
				if out == V0 {
					out = VX
				}
			}
			if out == V1 {
				break
			}
		}
		if t == netlist.GateNor {
			return out.Neg()
		}
		return out
	case netlist.GateXor, netlist.GateXnor:
		out := V0
		for i := range fanin {
			in := fn(i)
			if in == VX {
				return VX
			}
			if in == V1 {
				out = out.Neg()
			}
		}
		if t == netlist.GateXnor {
			return out.Neg()
		}
		return out
	case netlist.GateMux2:
		sel := fn(0)
		a, b := fn(1), fn(2)
		switch sel {
		case V0:
			return a
		case V1:
			return b
		default:
			if a != VX && a == b {
				return a
			}
			return VX
		}
	default:
		return VX
	}
}
