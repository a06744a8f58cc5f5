package netlist

import "fmt"

// Evaluate performs a single-pattern two-valued simulation of the
// combinational logic. `assign` maps every source signal (primary inputs,
// TSV pads, flip-flop outputs) to a value; constants are implied. It
// returns the value of every signal, indexed by SignalID.
//
// This scalar evaluator is the reference model: EvaluateWords and the
// bit-parallel simulator in internal/faultsim are checked against it
// property-style in tests.
func (n *Netlist) Evaluate(assign map[SignalID]bool) ([]bool, error) {
	vals := make([]bool, len(n.Gates))
	for _, id := range n.Graph().Order {
		g := &n.Gates[id]
		switch g.Type {
		case GateConst0:
			vals[id] = false
		case GateConst1:
			vals[id] = true
		case GateInput, GateTSVIn, GateDFF:
			v, ok := assign[id]
			if !ok && g.Type != GateDFF {
				return nil, fmt.Errorf("netlist: no value assigned to source %q", g.Name)
			}
			vals[id] = v // unassigned DFF defaults to false (reset state)
		default:
			v, err := evalGate(g.Type, g.Fanin, vals)
			if err != nil {
				return nil, fmt.Errorf("netlist: gate %q: %w", g.Name, err)
			}
			vals[id] = v
		}
	}
	return vals, nil
}

// EvaluateWords is the word-parallel form of Evaluate: a two-valued
// simulation of 64 patterns at once, bit k of each word carrying pattern k.
// vals is indexed by SignalID and must hold one word per signal. On entry
// the words of the sources (primary inputs, TSV pads, flip-flop outputs)
// carry the patterns; on return every signal's word holds its value, with
// constants driven to all-zeros or all-ones. Evaluate is its reference.
func (n *Netlist) EvaluateWords(vals []uint64) error {
	if len(vals) != len(n.Gates) {
		return fmt.Errorf("netlist: EvaluateWords got %d words for %d signals", len(vals), len(n.Gates))
	}
	g := n.Graph()
	for _, id := range g.Order {
		t := g.Types[id]
		fanin := g.FaninOf(id)
		var v uint64
		switch t {
		case GateInput, GateTSVIn, GateDFF:
			continue
		case GateConst0:
			v = 0
		case GateConst1:
			v = ^uint64(0)
		case GateBuf:
			v = vals[fanin[0]]
		case GateNot:
			v = ^vals[fanin[0]]
		case GateAnd, GateNand:
			v = ^uint64(0)
			for _, f := range fanin {
				v &= vals[f]
			}
			if t == GateNand {
				v = ^v
			}
		case GateOr, GateNor:
			for _, f := range fanin {
				v |= vals[f]
			}
			if t == GateNor {
				v = ^v
			}
		case GateXor, GateXnor:
			for _, f := range fanin {
				v ^= vals[f]
			}
			if t == GateXnor {
				v = ^v
			}
		case GateMux2:
			sel := vals[fanin[0]]
			v = vals[fanin[1]]&^sel | vals[fanin[2]]&sel
		default:
			return fmt.Errorf("netlist: gate %q: cannot evaluate %s", n.Gates[id].Name, t)
		}
		vals[id] = v
	}
	return nil
}

func evalGate(t GateType, fanin []SignalID, vals []bool) (bool, error) {
	in := func(i int) bool { return vals[fanin[i]] }
	switch t {
	case GateBuf:
		return in(0), nil
	case GateNot:
		return !in(0), nil
	case GateAnd, GateNand:
		v := true
		for i := range fanin {
			v = v && in(i)
		}
		if t == GateNand {
			v = !v
		}
		return v, nil
	case GateOr, GateNor:
		v := false
		for i := range fanin {
			v = v || in(i)
		}
		if t == GateNor {
			v = !v
		}
		return v, nil
	case GateXor, GateXnor:
		v := false
		for i := range fanin {
			v = v != in(i)
		}
		if t == GateXnor {
			v = !v
		}
		return v, nil
	case GateMux2:
		// fanin order: (sel, a, b); sel=0 -> a, sel=1 -> b.
		if in(0) {
			return in(2), nil
		}
		return in(1), nil
	default:
		return false, fmt.Errorf("cannot evaluate %s", t)
	}
}
