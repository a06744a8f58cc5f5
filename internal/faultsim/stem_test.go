package faultsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wcm3d/internal/faults"
	"wcm3d/internal/netlist"
)

// circuitKnobs shapes randomCircuit: each knob raises how often one
// structure the stem-region grader must get right appears.
type circuitKnobs struct {
	tsvs       int     // floating inbound TSV pads (X sources)
	recent     float64 // chance a fanin is drawn from the last few signals: reconvergence
	doubleFed  float64 // chance a gate reads one signal on two pins
	obsFanout  int     // POs on signals that also drive gates
	dffOnly    int     // gates that drive only a flip-flop D pin
	partialPat int     // patterns in the second, partial block
}

// randomCircuit writes a random combinational-plus-scan die in the bench
// dialect.
func randomCircuit(rng *rand.Rand, k circuitKnobs) string {
	var b strings.Builder
	var sigs []string
	for i := 0; i < 3+rng.Intn(3); i++ {
		fmt.Fprintf(&b, "INPUT(pi%d)\n", i)
		sigs = append(sigs, fmt.Sprintf("pi%d", i))
	}
	for i := 0; i < k.tsvs; i++ {
		fmt.Fprintf(&b, "TSV_IN(t%d)\n", i)
		sigs = append(sigs, fmt.Sprintf("t%d", i))
	}
	nFF := 2 + rng.Intn(3) + k.dffOnly
	for i := 0; i < nFF; i++ {
		sigs = append(sigs, fmt.Sprintf("q%d", i))
	}
	pick := func() string {
		if rng.Float64() < k.recent && len(sigs) > 4 {
			return sigs[len(sigs)-1-rng.Intn(4)]
		}
		return sigs[rng.Intn(len(sigs))]
	}
	types := []string{"AND", "NAND", "OR", "NOR", "XOR", "XNOR", "BUF", "NOT", "MUX"}
	var gates []string
	nGates := 25 + rng.Intn(25)
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		arity := 2 + rng.Intn(3)
		switch t {
		case "BUF", "NOT":
			arity = 1
		case "MUX":
			arity = 3
		}
		in := make([]string, arity)
		for j := range in {
			in[j] = pick()
		}
		if arity > 1 && rng.Float64() < k.doubleFed {
			in[rng.Intn(arity)] = in[(rng.Intn(arity-1)+1)%arity]
		}
		name := fmt.Sprintf("g%d", i)
		fmt.Fprintf(&b, "%s = %s(%s)\n", name, t, strings.Join(in, ", "))
		sigs = append(sigs, name)
		gates = append(gates, name)
	}
	// Flip-flop D pins: the first dffOnly read a fresh gate nothing else
	// reads; the rest read random gates.
	for i := 0; i < nFF; i++ {
		d := gates[rng.Intn(len(gates))]
		if i < k.dffOnly {
			d = fmt.Sprintf("d%d", i)
			fmt.Fprintf(&b, "%s = XOR(%s, %s)\n", d, pick(), pick())
		}
		fmt.Fprintf(&b, "q%d = DFF(%s)\n", i, d)
	}
	// Observe early gates (which likely fan out) and the last few.
	for i := 0; i < k.obsFanout; i++ {
		fmt.Fprintf(&b, "OUTPUT(o%d) = %s\n", i, gates[rng.Intn(len(gates)/2)])
	}
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "OUTPUT(z%d) = %s\n", i, gates[len(gates)-1-i])
	}
	fmt.Fprintf(&b, "TSV_OUT(u0) = %s\n", gates[len(gates)/2])
	return b.String()
}

// allFaults lists both stuck-at faults on every gate output and every
// gate input pin: the uncollapsed universe.
func allFaults(n *netlist.Netlist) []faults.Fault {
	var list []faults.Fault
	g := n.Graph()
	for i := range g.Types {
		id := netlist.SignalID(i)
		for sa := uint8(0); sa < 2; sa++ {
			list = append(list, faults.Fault{Gate: id, Pin: faults.OutputPin, StuckAt: sa})
			for pin := range g.FaninOf(id) {
				list = append(list, faults.Fault{Gate: id, Pin: int16(pin), StuckAt: sa})
			}
		}
	}
	return list
}

// TestDetectsMatchesReference holds the stem-region grader to the
// whole-cone reference, fault by fault and bit for bit, on random
// circuits built around each structure the scheme has to handle.
func TestDetectsMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		knobs circuitKnobs
		// present reports whether a circuit has the structure.
		present func(s *Simulator) bool
	}{
		{"floating-tsv", circuitKnobs{tsvs: 4, recent: 0.3, partialPat: 17}, func(s *Simulator) bool {
			for _, t := range s.g.Types {
				if t == netlist.GateTSVIn {
					return true
				}
			}
			return false
		}},
		{"reconvergent-fanout", circuitKnobs{tsvs: 1, recent: 0.9, partialPat: 40}, func(s *Simulator) bool {
			// Some gate reads two distinct signals with a common
			// ancestor.
			g := s.g
			anc := make([]map[netlist.SignalID]bool, len(g.Types))
			for _, id := range g.Order {
				anc[id] = map[netlist.SignalID]bool{id: true}
				if g.Types[id] == netlist.GateDFF {
					continue
				}
				for _, f := range g.FaninOf(id) {
					for a := range anc[f] {
						anc[id][a] = true
					}
				}
			}
			for _, id := range g.Order {
				fanin := g.FaninOf(id)
				if !g.Types[id].IsCombinational() {
					continue
				}
				for i := range fanin {
					for j := i + 1; j < len(fanin); j++ {
						if fanin[i] == fanin[j] {
							continue
						}
						for a := range anc[fanin[i]] {
							if anc[fanin[j]][a] {
								return true
							}
						}
					}
				}
			}
			return false
		}},
		{"double-fed-gate", circuitKnobs{recent: 0.3, doubleFed: 0.5, partialPat: 63}, func(s *Simulator) bool {
			for i := range s.g.Types {
				seen := map[netlist.SignalID]bool{}
				for _, f := range s.g.FaninOf(netlist.SignalID(i)) {
					if seen[f] {
						return true
					}
					seen[f] = true
				}
			}
			return false
		}},
		{"observed-with-fanout", circuitKnobs{tsvs: 1, recent: 0.3, obsFanout: 4, partialPat: 5}, func(s *Simulator) bool {
			for i, o := range s.observed {
				if o && len(s.g.FanoutOf(netlist.SignalID(i))) > 0 {
					return true
				}
			}
			return false
		}},
		{"dff-only-fanout", circuitKnobs{recent: 0.3, dffOnly: 3, partialPat: 33}, func(s *Simulator) bool {
			for i := range s.g.Types {
				fo := s.g.FanoutOf(netlist.SignalID(i))
				if len(fo) == 1 && s.g.Types[fo[0]] == netlist.GateDFF {
					return true
				}
			}
			return false
		}},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			for trial := 0; trial < 8; trial++ {
				src := randomCircuit(rng, c.knobs)
				n, err := netlist.ParseString(fmt.Sprintf("%s-%d", c.name, trial), src)
				if err != nil {
					t.Fatalf("trial %d: %v\n%s", trial, err, src)
				}
				s := New(n)
				if !c.present(s) {
					t.Fatalf("trial %d: circuit lacks the structure under test:\n%s", trial, src)
				}
				compareWithReference(t, s, allFaults(n), rng, c.knobs.partialPat)
			}
		})
	}
}

// compareWithReference grades every fault against a full and a partial
// random block, and fails on the first word that differs from the
// whole-cone reference. The first pass grades all faults on one block,
// then on the other, as the ATPG driver does; the second alternates the
// blocks fault by fault, so that the engine re-mirrors on every call.
func compareWithReference(t *testing.T, s *Simulator, list []faults.Fault, rng *rand.Rand, partial int) {
	t.Helper()
	var blocks []*Block
	for _, np := range []int{64, partial} {
		pats := make([]Pattern, np)
		for i := range pats {
			pats[i] = s.RandomPattern(rng)
		}
		block, err := s.GoodSim(pats)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, block)
	}
	eng, ref := s.NewEngine(), s.NewReferenceEngine()
	check := func(f faults.Fault, block *Block) {
		t.Helper()
		if got, want := eng.Detects(f, block), ref.Detects(f, block); got != want {
			t.Fatalf("%s, %d patterns: stem-region word %064b, reference %064b", f.Describe(s.N), block.NPat, got, want)
		}
	}
	for _, block := range blocks {
		for _, f := range list {
			check(f, block)
		}
	}
	for _, f := range list {
		for _, block := range blocks {
			check(f, block)
		}
	}
}
