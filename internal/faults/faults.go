// Package faults defines the structural fault models the testability side
// of the reproduction is built on: single stuck-at faults (with classic
// equivalence collapsing) and transition-delay faults under the
// enhanced-scan two-pattern assumption.
//
// The fault universe is always enumerated on the *functional* netlist, so
// that fault-coverage numbers from differently-wrapped variants of the same
// die share a denominator — exactly how the paper compares methods.
package faults

import (
	"fmt"

	"wcm3d/internal/netlist"
)

// OutputPin marks a fault on a gate's output rather than an input pin.
const OutputPin = -1

// Fault is a single stuck-at fault site.
type Fault struct {
	// Gate is the gate the fault is attached to.
	Gate netlist.SignalID
	// Pin is the input-pin index, or OutputPin for the gate output.
	Pin int16
	// StuckAt is the stuck value (0 or 1).
	StuckAt uint8
}

// String renders e.g. "g42/out s-a-1" or "g42/in2 s-a-0".
func (f Fault) String() string {
	if f.Pin == OutputPin {
		return fmt.Sprintf("#%d/out s-a-%d", f.Gate, f.StuckAt)
	}
	return fmt.Sprintf("#%d/in%d s-a-%d", f.Gate, f.Pin, f.StuckAt)
}

// Describe renders the fault with signal names from the netlist.
func (f Fault) Describe(n *netlist.Netlist) string {
	if f.Pin == OutputPin {
		return fmt.Sprintf("%s/out s-a-%d", n.NameOf(f.Gate), f.StuckAt)
	}
	src := n.Gate(f.Gate).Fanin[f.Pin]
	return fmt.Sprintf("%s/in%d(%s) s-a-%d", n.NameOf(f.Gate), f.Pin, n.NameOf(src), f.StuckAt)
}

// controllingValue returns (value, ok): the input value that forces the
// gate's output regardless of other inputs, for gate types that have one.
func controllingValue(t netlist.GateType) (uint8, bool) {
	switch t {
	case netlist.GateAnd, netlist.GateNand:
		return 0, true
	case netlist.GateOr, netlist.GateNor:
		return 1, true
	default:
		return 0, false
	}
}

// CollapsedList enumerates the equivalence-collapsed single stuck-at fault
// list of a netlist:
//
//   - both output faults on every signal that drives something observable
//     (gates, flip-flop outputs, TSV pads, primary inputs);
//   - input-pin faults only on pins fed by multi-fanout nets (single-fanout
//     pin faults are wire-equivalent to the driver's output faults), and
//     only the non-controlling pin fault for AND/NAND/OR/NOR (the
//     controlling one is equivalent to an output fault of the same gate);
//     inverters and buffers contribute no pin faults at all.
//
// The DFF D pin is treated like a buffer input (no extra pin faults).
func CollapsedList(n *netlist.Netlist) []Fault {
	graph := n.Graph()
	// ports[s] counts the output ports observing s: with the gate pins s
	// feeds, they make up its electrical fanout.
	ports := make([]int, n.NumGates())
	for _, o := range n.Outputs {
		ports[o.Signal]++
	}
	var list []Fault
	for i := range n.Gates {
		id := netlist.SignalID(i)
		// Output faults on every signal.
		list = append(list,
			Fault{Gate: id, Pin: OutputPin, StuckAt: 0},
			Fault{Gate: id, Pin: OutputPin, StuckAt: 1},
		)
		g := n.Gate(id)
		if !g.Type.IsCombinational() {
			continue
		}
		for pin, src := range g.Fanin {
			if len(graph.FanoutOf(src))+ports[src] <= 1 {
				continue // wire-equivalent to the driver's output fault
			}
			switch g.Type {
			case netlist.GateBuf, netlist.GateNot:
				continue // pin faults equivalent to output faults
			case netlist.GateAnd, netlist.GateNand, netlist.GateOr, netlist.GateNor:
				cv, _ := controllingValue(g.Type)
				// s-a-controlling is equivalent to an output fault;
				// keep only s-a-non-controlling.
				list = append(list, Fault{Gate: id, Pin: int16(pin), StuckAt: 1 - cv})
			default:
				// XOR/XNOR/MUX have no controlling value: keep both.
				list = append(list,
					Fault{Gate: id, Pin: int16(pin), StuckAt: 0},
					Fault{Gate: id, Pin: int16(pin), StuckAt: 1},
				)
			}
		}
	}
	return list
}

// TransitionFault is a transition-delay fault: the signal is slow to make
// the given transition. Under the enhanced-scan assumption it is detected
// by a vector pair (V1, V2) where V1 establishes the initial value and V2
// is a stuck-at test for the final value being stuck at the initial one.
type TransitionFault struct {
	// Gate is the signal that transitions slowly.
	Gate netlist.SignalID
	// SlowToRise is true for a slow 0→1 transition, false for slow 1→0.
	SlowToRise bool
}

// String renders e.g. "#42 STR".
func (f TransitionFault) String() string {
	if f.SlowToRise {
		return fmt.Sprintf("#%d STR", f.Gate)
	}
	return fmt.Sprintf("#%d STF", f.Gate)
}

// Equivalent returns the stuck-at fault whose detection by V2 detects this
// transition fault (given V1 sets the opposite value): a slow-to-rise
// signal looks stuck at 0 on the final vector.
func (f TransitionFault) Equivalent() Fault {
	sa := uint8(1)
	if f.SlowToRise {
		sa = 0
	}
	return Fault{Gate: f.Gate, Pin: OutputPin, StuckAt: sa}
}

// InitialValue returns the value V1 must establish at the fault site.
func (f TransitionFault) InitialValue() uint8 {
	if f.SlowToRise {
		return 0
	}
	return 1
}

// TransitionList enumerates both transition faults on every signal output.
func TransitionList(n *netlist.Netlist) []TransitionFault {
	list := make([]TransitionFault, 0, 2*n.NumGates())
	for i := range n.Gates {
		id := netlist.SignalID(i)
		list = append(list,
			TransitionFault{Gate: id, SlowToRise: true},
			TransitionFault{Gate: id, SlowToRise: false},
		)
	}
	return list
}
