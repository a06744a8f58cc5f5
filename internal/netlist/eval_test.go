package netlist

import (
	"math/rand"
	"testing"
)

// randomEvalCircuit builds a random circuit that uses every gate type:
// sources of each kind, both constants, flip-flops fed by logic, Mux2, and
// XOR/AND-family gates widened to six pins by AppendFanin. Every fanin
// points at an earlier signal, so the result is acyclic by construction.
func randomEvalCircuit(rng *rand.Rand, nGates int) *Netlist {
	n := New("eval")
	n.MustAddGate(GateInput, "pi0")
	n.MustAddGate(GateTSVIn, "tin0")
	n.MustAddGate(GateConst0, "c0")
	n.MustAddGate(GateConst1, "c1")
	types := []GateType{GateInput, GateTSVIn, GateDFF, GateBuf, GateNot, GateAnd,
		GateNand, GateOr, GateNor, GateXor, GateXnor, GateMux2}
	pick := func() SignalID { return SignalID(rng.Intn(n.NumGates())) }
	for i := 0; i < nGates; i++ {
		typ := types[rng.Intn(len(types))]
		nIn := typ.MinFanin()
		if typ.MaxFanin() < 0 {
			nIn += rng.Intn(3)
		}
		fanin := make([]SignalID, nIn)
		for j := range fanin {
			fanin[j] = pick()
		}
		id := n.MustAddGate(typ, "g"+itoa(i), fanin...)
		if typ.MaxFanin() < 0 && rng.Intn(4) == 0 {
			for len(n.Gate(id).Fanin) < 6 {
				if err := n.AppendFanin(id, SignalID(rng.Intn(int(id)))); err != nil {
					panic(err)
				}
			}
		}
	}
	return n
}

// TestEvaluateWordsMatchesScalar is the differential test of the
// word-parallel simulator against the scalar reference: every signal's bit
// for pattern p must equal Evaluate's value under pattern p, with one, two
// or three words per signal and across a partial last word.
func TestEvaluateWordsMatchesScalar(t *testing.T) {
	for seed := int64(1); seed <= 21; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := randomEvalCircuit(rng, 40+rng.Intn(160))
		if err := n.Validate(); err != nil {
			t.Fatal(err)
		}
		widened := false
		for i := range n.Gates {
			if len(n.Gates[i].Fanin) == 6 {
				widened = true
			}
		}
		if !widened {
			t.Fatalf("seed %d: no gate widened to 6 pins", seed)
		}

		var srcs []SignalID
		for i := range n.Gates {
			switch n.Gates[i].Type {
			case GateInput, GateTSVIn, GateDFF:
				srcs = append(srcs, SignalID(i))
			}
		}
		w := 1 + int(seed%3)
		patterns := 64*(w-1) + 37
		assigns := make([]map[SignalID]bool, patterns)
		vals := make([]uint64, w*n.NumGates())
		for p := range assigns {
			assigns[p] = map[SignalID]bool{}
			for _, s := range srcs {
				v := rng.Intn(2) == 1
				assigns[p][s] = v
				if v {
					vals[int(s)*w+p/64] |= 1 << (p % 64)
				}
			}
		}
		if err := n.Graph().EvaluateWords(vals); err != nil {
			t.Fatal(err)
		}
		for p, a := range assigns {
			want, err := n.Evaluate(a)
			if err != nil {
				t.Fatal(err)
			}
			for id, v := range want {
				if got := vals[id*w+p/64]>>(p%64)&1 == 1; got != v {
					t.Fatalf("seed %d pattern %d: %s (%s) = %v, scalar %v",
						seed, p, n.Gates[id].Name, n.Gates[id].Type, got, v)
				}
			}
		}
	}
}

func TestEvaluateWordsRejectsShortBuffer(t *testing.T) {
	n := New("x")
	n.MustAddGate(GateInput, "a")
	n.MustAddGate(GateNot, "b", 0)
	for _, vals := range [][]uint64{nil, make([]uint64, 3)} {
		if err := n.Graph().EvaluateWords(vals); err == nil {
			t.Errorf("%d words for 2 signals must error", len(vals))
		}
	}
}
