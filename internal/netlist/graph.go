package netlist

import (
	"errors"
	"fmt"
)

// ErrCycle is returned (wrapped) when a circuit's combinational logic
// contains a loop that no flip-flop breaks.
var ErrCycle = errors.New("combinational cycle detected")

// Graph is a circuit's connectivity in flat, pointer-free arrays: gate
// types, the fanin and fanout edges in CSR layout (FaninOff[i] ..
// FaninOff[i+1] indexes into Fanin, likewise for fanouts), and a
// topological order with logic levels. A Netlist derives one lazily
// through Derive. The timing view of a DFT edit (scan.FunctionalTimer)
// assembles one without materializing a Netlist or calling Derive: it
// fills Types, the fanin CSR and an Order built from its base die's, and
// leaves the fanout CSR and levels nil. Static timing reads only those
// (sta sums loads by scattering over fanins in ascending reader order,
// which is the fanout CSR's order), so both ways agree by construction.
//
// A Graph handed out by a Netlist is shared and must not be mutated.
type Graph struct {
	Types    []GateType
	FaninOff []int32
	Fanin    []SignalID
	// Derived by Derive.
	FanoutOff []int32
	Fanout    []SignalID
	// Order lists the signals topologically: sources and flip-flop
	// outputs first, then each combinational gate after all its fanins.
	// It falls short of NumGates when the logic has a cycle.
	Order []SignalID
	// Level is 0 for sources and flip-flop outputs, 1 + max(fanin levels)
	// for combinational gates.
	Level []int32
}

// NumGates returns the number of signals.
func (g *Graph) NumGates() int { return len(g.Types) }

// FaninOf returns the fanin of id in pin order. The slice is capped at
// its length, so an append copies out instead of overwriting the next
// gate's list.
func (g *Graph) FaninOf(id SignalID) []SignalID {
	lo, hi := g.FaninOff[id], g.FaninOff[id+1]
	return g.Fanin[lo:hi:hi]
}

// FanoutOf returns the gates id feeds, in ascending SignalID order, one
// entry per pin. Output ports do not appear. Like FaninOf, the slice is
// capped at its length.
func (g *Graph) FanoutOf(id SignalID) []SignalID {
	lo, hi := g.FanoutOff[id], g.FanoutOff[id+1]
	return g.Fanout[lo:hi:hi]
}

// MaxLevel returns the deepest logic level in the circuit.
func (g *Graph) MaxLevel() int {
	max := int32(0)
	for _, l := range g.Level {
		if l > max {
			max = l
		}
	}
	return int(max)
}

// Derive fills the fanout CSR, Order and Level from Types and the fanin
// CSR. Every array is freshly allocated.
func (g *Graph) Derive() {
	nGates := len(g.Types)

	// The fanout CSR is the fanin CSR transposed. Filling by ascending
	// gate id keeps each fanout list sorted.
	g.FanoutOff = make([]int32, nGates+1)
	for _, f := range g.Fanin {
		g.FanoutOff[f+1]++
	}
	for i := 0; i < nGates; i++ {
		g.FanoutOff[i+1] += g.FanoutOff[i]
	}
	g.Fanout = make([]SignalID, len(g.Fanin))
	next := make([]int32, nGates)
	copy(next, g.FanoutOff[:nGates])
	for i := 0; i < nGates; i++ {
		for _, f := range g.FaninOf(SignalID(i)) {
			g.Fanout[next[f]] = SignalID(i)
			next[f]++
		}
	}

	// Levelize: flip-flops break cycles — a DFF's Q is a source, its D
	// pin is a sink. The BFS queue is the topological order.
	g.Level = make([]int32, nGates)
	pending := next // reuse: unresolved fanin count
	order := make([]SignalID, 0, nGates)
	for i, t := range g.Types {
		if t.IsSource() || t == GateDFF {
			order = append(order, SignalID(i))
			pending[i] = 0
			continue
		}
		pending[i] = g.FaninOff[i+1] - g.FaninOff[i]
	}
	for head := 0; head < len(order); head++ {
		for _, fo := range g.FanoutOf(order[head]) {
			ft := g.Types[fo]
			if ft == GateDFF || ft.IsSource() {
				continue // D pin is a sink; sources have no fanin
			}
			pending[fo]--
			if pending[fo] == 0 {
				lvl := int32(0)
				for _, f := range g.FaninOf(fo) {
					if fl := g.Level[f] + 1; fl > lvl {
						lvl = fl
					}
				}
				g.Level[fo] = lvl
				order = append(order, fo)
			}
		}
	}
	g.Order = order
}

// CheckAcyclic reports ErrCycle (wrapped, naming the circuit) when Order
// does not cover every signal.
func (g *Graph) CheckAcyclic(name string) error {
	if len(g.Order) != len(g.Types) {
		return CycleError(name, len(g.Order), len(g.Types))
	}
	return nil
}

// CycleError is CheckAcyclic's error for a circuit whose topological order
// covers only ordered of its gates.
func CycleError(name string, ordered, gates int) error {
	return fmt.Errorf("netlist %q: %w (%d of %d gates ordered)", name, ErrCycle, ordered, gates)
}
