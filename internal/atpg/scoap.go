package atpg

import "wcm3d/internal/netlist"

// infCost marks uncontrollable signals (floating TSV pads and anything
// only they can justify).
const infCost = int32(1 << 28)

// scoap holds SCOAP-style testability measures: cc0/cc1 are the
// combinational 0- and 1-controllability of each signal (smaller = easier),
// and reachObs marks signals with a structural path to an observation
// point. PODEM's backtrace uses the controllabilities to pick the
// easiest-to-justify input, and the driver uses reachObs to declare
// structurally untestable faults without search.
type scoap struct {
	cc0, cc1 []int32
	reachObs []bool
}

func addSat(a, b int32) int32 {
	c := a + b
	if c > infCost {
		return infCost
	}
	return c
}

// computeScoap derives the measures for a netlist, given which signals are
// controllable sources and which are observed.
func computeScoap(n *netlist.Netlist, controllable func(netlist.SignalID) bool, observed func(netlist.SignalID) bool) *scoap {
	g := n.Graph()
	ng := g.NumGates()
	sc := &scoap{
		cc0:      make([]int32, ng),
		cc1:      make([]int32, ng),
		reachObs: make([]bool, ng),
	}
	for _, id := range g.Order {
		t := g.Types[id]
		switch {
		case t == netlist.GateConst0:
			sc.cc0[id], sc.cc1[id] = 1, infCost
		case t == netlist.GateConst1:
			sc.cc0[id], sc.cc1[id] = infCost, 1
		case t.IsSource() || t == netlist.GateDFF:
			if controllable(id) {
				sc.cc0[id], sc.cc1[id] = 1, 1
			} else {
				sc.cc0[id], sc.cc1[id] = infCost, infCost
			}
		default:
			sc.cc0[id], sc.cc1[id] = gateCC(t, g.FaninOf(id), sc)
		}
	}
	// Backward reachability to observation points, through combinational
	// gates only (a DFF D pin is itself an observation point in full
	// scan, so effects never need to cross a DFF).
	for k := len(g.Order) - 1; k >= 0; k-- {
		id := g.Order[k]
		if observed(id) {
			sc.reachObs[id] = true
			continue
		}
		for _, fo := range g.FanoutOf(id) {
			if g.Types[fo].IsCombinational() && sc.reachObs[fo] {
				sc.reachObs[id] = true
				break
			}
		}
	}
	return sc
}

// gateCC computes (cc0, cc1) of a combinational gate of type t from the
// measures of its fanin.
func gateCC(t netlist.GateType, fanin []netlist.SignalID, sc *scoap) (int32, int32) {
	in0 := func(pin int) int32 { return sc.cc0[fanin[pin]] }
	in1 := func(pin int) int32 { return sc.cc1[fanin[pin]] }
	minOver := func(f func(int) int32) int32 {
		m := infCost
		for i := range fanin {
			if c := f(i); c < m {
				m = c
			}
		}
		return m
	}
	sumOver := func(f func(int) int32) int32 {
		var s int32 = 0
		for i := range fanin {
			s = addSat(s, f(i))
		}
		return s
	}
	switch t {
	case netlist.GateBuf:
		return addSat(in0(0), 1), addSat(in1(0), 1)
	case netlist.GateNot:
		return addSat(in1(0), 1), addSat(in0(0), 1)
	case netlist.GateAnd:
		return addSat(minOver(in0), 1), addSat(sumOver(in1), 1)
	case netlist.GateNand:
		return addSat(sumOver(in1), 1), addSat(minOver(in0), 1)
	case netlist.GateOr:
		return addSat(sumOver(in0), 1), addSat(minOver(in1), 1)
	case netlist.GateNor:
		return addSat(minOver(in1), 1), addSat(sumOver(in0), 1)
	case netlist.GateXor, netlist.GateXnor:
		// For 2-input XOR: cc0 = min(both-0, both-1)+1, cc1 = min of
		// mixed pairs. Generalize pairwise for wider gates (approximate
		// but monotone, which is all backtrace needs).
		even := int32(0) // cheapest way to get even parity of 1s
		odd := infCost
		for i := range fanin {
			c0, c1 := in0(i), in1(i)
			nEven := minI32(addSat(even, c0), addSat(odd, c1))
			nOdd := minI32(addSat(even, c1), addSat(odd, c0))
			even, odd = nEven, nOdd
		}
		if t == netlist.GateXor {
			return addSat(even, 1), addSat(odd, 1)
		}
		return addSat(odd, 1), addSat(even, 1)
	case netlist.GateMux2:
		s0, s1 := in0(0), in1(0)
		a0, a1 := in0(1), in1(1)
		b0, b1 := in0(2), in1(2)
		cc0 := minI32(addSat(s0, a0), addSat(s1, b0))
		cc1 := minI32(addSat(s0, a1), addSat(s1, b1))
		return addSat(cc0, 1), addSat(cc1, 1)
	default:
		return infCost, infCost
	}
}

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// cost returns the controllability of driving sig to v.
func (sc *scoap) cost(sig netlist.SignalID, v V) int32 {
	if v == V1 {
		return sc.cc1[sig]
	}
	return sc.cc0[sig]
}
