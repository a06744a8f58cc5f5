package netlist

import "fmt"

// Evaluate performs a single-pattern two-valued simulation of the
// combinational logic. `assign` maps every source signal (primary inputs,
// TSV pads, flip-flop outputs) to a value; constants are implied. It
// returns the value of every signal, indexed by SignalID.
//
// This scalar evaluator is the reference model: Graph.EvaluateWords and the
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

// EvaluateWords is the word-parallel form of Netlist.Evaluate: a
// two-valued simulation of 64 patterns per word. vals holds the same
// number of words w for every signal, signal id's at vals[id*w:id*w+w], so
// one pass over the order evaluates 64*w patterns; bit k of a signal's
// word j carries pattern 64*j+k. On entry the words of the sources
// (primary inputs, TSV pads, flip-flop outputs) carry the patterns; on
// return every signal's words hold its value, with constants driven to
// all-zeros or all-ones. Netlist.Evaluate is its reference.
func (g *Graph) EvaluateWords(vals []uint64) error {
	nGates := len(g.Types)
	if nGates == 0 || len(vals) == 0 || len(vals)%nGates != 0 {
		return fmt.Errorf("netlist: EvaluateWords got %d words for %d signals", len(vals), nGates)
	}
	w := len(vals) / nGates
	for _, id := range g.Order {
		t := g.Types[id]
		if t == GateInput || t == GateTSVIn || t == GateDFF {
			continue
		}
		fanin := g.FaninOf(id)
		out := vals[int(id)*w : int(id)*w+w]
		for j := range out {
			var v uint64
			switch t {
			case GateConst0:
				v = 0
			case GateConst1:
				v = ^uint64(0)
			case GateBuf:
				v = vals[int(fanin[0])*w+j]
			case GateNot:
				v = ^vals[int(fanin[0])*w+j]
			case GateAnd, GateNand:
				v = ^uint64(0)
				for _, f := range fanin {
					v &= vals[int(f)*w+j]
				}
				if t == GateNand {
					v = ^v
				}
			case GateOr, GateNor:
				for _, f := range fanin {
					v |= vals[int(f)*w+j]
				}
				if t == GateNor {
					v = ^v
				}
			case GateXor, GateXnor:
				for _, f := range fanin {
					v ^= vals[int(f)*w+j]
				}
				if t == GateXnor {
					v = ^v
				}
			case GateMux2:
				sel := vals[int(fanin[0])*w+j]
				v = vals[int(fanin[1])*w+j]&^sel | vals[int(fanin[2])*w+j]&sel
			default:
				return fmt.Errorf("netlist: signal %d: cannot evaluate %s", id, t)
			}
			out[j] = v
		}
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
