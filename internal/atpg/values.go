// Package atpg implements deterministic test-pattern generation — the
// other half of the reproduction's stand-in for a commercial ATPG tool.
// The flow is the classic industrial one:
//
//  1. a random-pattern phase with bit-parallel fault simulation and fault
//     dropping (internal/faultsim) picks off the easy faults;
//  2. a PODEM (path-oriented decision making) phase targets each remaining
//     fault with SCOAP-guided backtrace, a backtrack budget, and
//     event-driven implication over two three-valued machines, the good
//     one and the faulty one (a signal carries a fault effect where both
//     are known and differ, the D and D' of the five-valued calculus);
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
// arrays start all-X. V0 and V1 are one bit each, which the evaluators
// use: the AND of values is V1 only if all are V1, and the OR of their
// V0 bits is set if any is V0.
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
func (v V) Neg() V { return (v&V0)<<1 | v>>1 }

// FromBool converts a concrete bit.
func FromBool(b bool) V {
	if b {
		return V1
	}
	return V0
}

// eval3 computes the three-valued output of a gate of type t from the
// values of its fanin signals in val.
func eval3(t netlist.GateType, fanin []netlist.SignalID, val []V) V {
	switch t {
	case netlist.GateBuf:
		return val[fanin[0]]
	case netlist.GateNot:
		return val[fanin[0]].Neg()
	case netlist.GateConst0:
		return V0
	case netlist.GateConst1:
		return V1
	case netlist.GateAnd, netlist.GateNand:
		// Any 0 gives 0; otherwise all 1 gives 1, and an X gives X.
		any0, all1 := VX, V1
		for _, f := range fanin {
			v := val[f]
			any0 |= v & V0
			all1 &= v
		}
		out := all1
		if any0 != VX {
			out = V0
		}
		if t == netlist.GateNand {
			return out.Neg()
		}
		return out
	case netlist.GateOr, netlist.GateNor:
		// Any 1 gives 1; otherwise all 0 gives 0, and an X gives X.
		any1, all0 := VX, V0
		for _, f := range fanin {
			v := val[f]
			any1 |= v & V1
			all0 &= v
		}
		out := all0
		if any1 != VX {
			out = V1
		}
		if t == netlist.GateNor {
			return out.Neg()
		}
		return out
	case netlist.GateXor, netlist.GateXnor:
		var odd V // parity of the 1 inputs, as 0 or 1
		for _, f := range fanin {
			v := val[f]
			if v == VX {
				return VX
			}
			odd ^= v >> 1
		}
		if t == netlist.GateXnor {
			odd ^= 1
		}
		return V0 + odd
	case netlist.GateMux2:
		a, b := val[fanin[1]], val[fanin[2]]
		switch val[fanin[0]] {
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
