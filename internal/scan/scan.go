// Package scan is the DFT editor: it takes a wrapper plan (which scan
// flip-flops are reused for which TSVs, and where additional wrapper cells
// go — the output of the WCM solver in internal/wcm) and materializes it as
// netlist edits, in two views:
//
//   - the test-mode view (ApplyTestMode): the circuit as the pre-bond
//     tester sees it — reused flip-flops drive inbound TSV pads, outbound
//     TSV signals are folded into capture flip-flops through XOR trees.
//     This is the netlist ATPG and fault simulation grade.
//
//   - the functional-mode view (ApplyFunctionalMode): the circuit with the
//     physical test hardware (test multiplexers, observation XORs) present
//     on the functional paths, plus placement coordinates for the new
//     cells. This is the circuit static timing analysis checks for
//     violations — the paper's Table III experiment. A FunctionalTimer,
//     built once per die, times it for any plan without materializing a
//     Netlist (see functional.go).
package scan

import (
	"errors"
	"fmt"

	"wcm3d/internal/netlist"
)

// ErrInvalidPlan is returned (wrapped) when a plan does not fit its die.
var ErrInvalidPlan = errors.New("scan: invalid plan")

// invalid formats an ErrInvalidPlan.
func invalid(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidPlan}, args...)...)
}

// TestEnableName is the port name ApplyFunctionalMode gives the shared
// test-enable input; signoff ties it low (case analysis).
const TestEnableName = "test_en"

// ControlGroup is one clique on the inbound side: a set of inbound TSV pads
// sharing a single test-mode control point.
type ControlGroup struct {
	// ReusedFF is the scan flip-flop acting as the control point, or
	// netlist.InvalidSignal when a dedicated wrapper cell is inserted.
	ReusedFF netlist.SignalID
	// TSVs are the inbound TSV pads (GateTSVIn signals) driven by the
	// control point during test.
	TSVs []netlist.SignalID
}

// Reused reports whether the group reuses a scan flip-flop.
func (g ControlGroup) Reused() bool { return g.ReusedFF != netlist.InvalidSignal }

// ObserveGroup is one clique on the outbound side: a set of outbound TSV
// ports sharing a single capture point.
type ObserveGroup struct {
	// ReusedFF is the scan flip-flop acting as the capture point, or
	// netlist.InvalidSignal when a dedicated wrapper cell is inserted.
	ReusedFF netlist.SignalID
	// Ports are indices into Netlist.Outputs (class PortTSVOut) observed
	// by the capture point.
	Ports []int
}

// Reused reports whether the group reuses a scan flip-flop.
func (g ObserveGroup) Reused() bool { return g.ReusedFF != netlist.InvalidSignal }

// Assignment is the complete wrapper plan for one die.
type Assignment struct {
	Control []ControlGroup
	Observe []ObserveGroup
	// BufferedRouting requests repeaters on long test-distribution wires
	// when the plan is materialized in functional mode: the load any
	// control point or tapped signal sees is then bounded to one buffer
	// segment. Wire-aware planners set this (they know where the long
	// runs are); the capacitance-only baseline does not — it cannot see
	// the wires it would need to buffer.
	BufferedRouting bool
}

// ReusedFFs counts distinct flip-flops reused by the plan.
func (a *Assignment) ReusedFFs() int {
	seen := map[netlist.SignalID]struct{}{}
	for _, g := range a.Control {
		if g.Reused() {
			seen[g.ReusedFF] = struct{}{}
		}
	}
	for _, g := range a.Observe {
		if g.Reused() {
			seen[g.ReusedFF] = struct{}{}
		}
	}
	return len(seen)
}

// AdditionalCells counts dedicated wrapper cells the plan inserts.
func (a *Assignment) AdditionalCells() int {
	n := 0
	for _, g := range a.Control {
		if !g.Reused() {
			n++
		}
	}
	for _, g := range a.Observe {
		if !g.Reused() {
			n++
		}
	}
	return n
}

// Validate checks the plan against a die: every group non-empty, every
// member a real TSV of the right direction, every TSV covered exactly once,
// and no flip-flop used by two groups.
func (a *Assignment) Validate(n *netlist.Netlist) error {
	// ffUsed maps a reused flip-flop to the group using it: control group
	// i as i, observe group i as -1-i.
	ffUsed := make(map[netlist.SignalID]int, len(a.Control)+len(a.Observe))
	user := func(g int) string {
		if g < 0 {
			return fmt.Sprintf("observe group %d", -1-g)
		}
		return fmt.Sprintf("control group %d", g)
	}
	tsvSeen := make(map[netlist.SignalID]struct{}, len(a.Control))
	for i, g := range a.Control {
		if len(g.TSVs) == 0 {
			return invalid("control group %d is empty", i)
		}
		if g.Reused() {
			if n.TypeOf(g.ReusedFF) != netlist.GateDFF {
				return invalid("control group %d reuses non-FF %q", i, n.NameOf(g.ReusedFF))
			}
			if prev, dup := ffUsed[g.ReusedFF]; dup {
				return invalid("FF %q used by %s and control group %d", n.NameOf(g.ReusedFF), user(prev), i)
			}
			ffUsed[g.ReusedFF] = i
		}
		for _, t := range g.TSVs {
			if n.TypeOf(t) != netlist.GateTSVIn {
				return invalid("control group %d contains non-TSV %q", i, n.NameOf(t))
			}
			if _, dup := tsvSeen[t]; dup {
				return invalid("inbound TSV %q in two groups", n.NameOf(t))
			}
			tsvSeen[t] = struct{}{}
		}
	}
	portSeen := make([]bool, len(n.Outputs))
	for i, g := range a.Observe {
		if len(g.Ports) == 0 {
			return invalid("observe group %d is empty", i)
		}
		if g.Reused() {
			if n.TypeOf(g.ReusedFF) != netlist.GateDFF {
				return invalid("observe group %d reuses non-FF %q", i, n.NameOf(g.ReusedFF))
			}
			if prev, dup := ffUsed[g.ReusedFF]; dup {
				return invalid("FF %q used by %s and observe group %d", n.NameOf(g.ReusedFF), user(prev), i)
			}
			ffUsed[g.ReusedFF] = -1 - i
		}
		for _, pIdx := range g.Ports {
			if pIdx < 0 || pIdx >= len(n.Outputs) || n.Outputs[pIdx].Class != netlist.PortTSVOut {
				return invalid("observe group %d references invalid TSV_OUT port %d", i, pIdx)
			}
			if portSeen[pIdx] {
				return invalid("outbound TSV port %d in two groups", pIdx)
			}
			portSeen[pIdx] = true
		}
	}
	return nil
}

// Covered reports whether the plan wraps every TSV of the die (full
// pre-bond testability).
func (a *Assignment) Covered(n *netlist.Netlist) bool {
	nIn, nOut := 0, 0
	for _, g := range a.Control {
		nIn += len(g.TSVs)
	}
	for _, g := range a.Observe {
		nOut += len(g.Ports)
	}
	return nIn == len(n.InboundTSVs()) && nOut == len(n.OutboundTSVs())
}

// FullWrap returns the trivial plan: one dedicated wrapper cell per TSV —
// the pre-reuse baseline whose area cost motivates the whole paper.
func FullWrap(n *netlist.Netlist) *Assignment {
	// The reference design is built the way a physical flow would build
	// it: long runs from drivers to pad-side observation cells carry
	// repeaters.
	a := &Assignment{BufferedRouting: true}
	for _, t := range n.InboundTSVs() {
		a.Control = append(a.Control, ControlGroup{ReusedFF: netlist.InvalidSignal, TSVs: []netlist.SignalID{t}})
	}
	for _, p := range n.OutboundTSVs() {
		a.Observe = append(a.Observe, ObserveGroup{ReusedFF: netlist.InvalidSignal, Ports: []int{p}})
	}
	return a
}

// ApplyTestMode builds the pre-bond test view of the die under the plan.
// The original netlist is not modified.
func ApplyTestMode(n *netlist.Netlist, a *Assignment) (*netlist.Netlist, error) {
	if err := a.Validate(n); err != nil {
		return nil, err
	}
	tn := n.Clone()
	tn.Name = n.Name + "_test"
	for i, g := range a.Control {
		var src netlist.SignalID
		if g.Reused() {
			src = g.ReusedFF
		} else {
			// A dedicated wrapper cell is scan-controllable: model its
			// test-mode output as a fresh controllable source.
			var err error
			src, err = tn.AddGate(netlist.GateInput, fmt.Sprintf("wcc%d", i))
			if err != nil {
				return nil, err
			}
		}
		for _, t := range g.TSVs {
			// The pad stops floating: in test mode it repeats the
			// control point.
			gate := tn.Gate(t)
			gate.Type = netlist.GateBuf
			gate.Fanin = []netlist.SignalID{src}
		}
	}
	for i, g := range a.Observe {
		// Fold every member signal into the capture point through an
		// XOR tree (one signal: direct).
		var folded netlist.SignalID = netlist.InvalidSignal
		for j, pIdx := range g.Ports {
			sig := tn.Outputs[pIdx].Signal
			if folded == netlist.InvalidSignal {
				folded = sig
				continue
			}
			x, err := tn.AddGate(netlist.GateXor, fmt.Sprintf("wobx%d_%d", i, j), folded, sig)
			if err != nil {
				return nil, err
			}
			folded = x
		}
		if g.Reused() {
			ff := tn.Gate(g.ReusedFF)
			x, err := tn.AddGate(netlist.GateXor, fmt.Sprintf("wobm%d", i), ff.Fanin[0], folded)
			if err != nil {
				return nil, err
			}
			ff.Fanin[0] = x
		} else {
			// Dedicated observation cell: a fresh scan flip-flop
			// capturing the folded value.
			if _, err := tn.AddGate(netlist.GateDFF, fmt.Sprintf("wco%d", i), folded); err != nil {
				return nil, err
			}
		}
	}
	if err := tn.Validate(); err != nil {
		return nil, fmt.Errorf("scan: test-mode netlist invalid: %w", err)
	}
	return tn, nil
}
