package netgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wcm3d/internal/netlist"
)

// TestQuickProfileInvariants: any sane random profile generates a die that
// validates, matches its counters exactly, and keeps every source driving
// logic.
func TestQuickProfileInvariants(t *testing.T) {
	f := func(gatesRaw, ffsRaw, inRaw, outRaw uint16, seed int64) bool {
		p := Profile{
			Circuit:      "q",
			Gates:        50 + int(gatesRaw%400),
			ScanFFs:      int(ffsRaw % 24),
			InboundTSVs:  int(inRaw % 30),
			OutboundTSVs: int(outRaw % 30),
			PIs:          4,
			POs:          3,
		}
		n, err := Generate(p, seed)
		if err != nil {
			return false
		}
		if err := n.Validate(); err != nil {
			return false
		}
		st := netlist.CollectStats(n)
		if st.ScanFFs != p.ScanFFs || st.LogicGates != p.Gates ||
			st.InboundTSVs != p.InboundTSVs || st.OutboundTSVs != p.OutboundTSVs {
			return false
		}
		g := n.Graph()
		for _, id := range n.InboundTSVs() {
			if len(g.FanoutOf(id)) == 0 {
				return false
			}
		}
		for _, ff := range n.FlipFlops() {
			if len(g.FanoutOf(ff)) == 0 {
				return false
			}
			if !n.TypeOf(n.Gate(ff).Fanin[0]).IsCombinational() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterminism: generation is a pure function of (profile, seed).
func TestQuickDeterminism(t *testing.T) {
	f := func(gatesRaw uint8, seed int64) bool {
		p := Profile{Circuit: "det", Gates: 60 + int(gatesRaw), ScanFFs: 6,
			InboundTSVs: 5, OutboundTSVs: 5, PIs: 4, POs: 2}
		a, err := Generate(p, seed)
		if err != nil {
			return false
		}
		b, err := Generate(p, seed)
		if err != nil {
			return false
		}
		return a.String() == b.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestModularityProperty: the generator's cluster structure must yield a
// healthy fraction of disjoint fan-out cone pairs among TSVs — the
// precondition for any scan-flip-flop reuse at all.
func TestModularityProperty(t *testing.T) {
	n, err := Generate(Profile{
		Circuit: "mod", Gates: 600, ScanFFs: 24,
		InboundTSVs: 16, OutboundTSVs: 16, PIs: 6, POs: 4,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tsvs := n.InboundTSVs()
	cones := netlist.NewConeSet(n, tsvs)
	mask := netlist.NewBitSet(n.NumGates())
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if n.TypeOf(id).IsSource() || n.TypeOf(id) == netlist.GateDFF {
			mask.Set(id)
		}
	}
	disjoint, total := 0, 0
	for i := 0; i < len(tsvs); i++ {
		for j := i + 1; j < len(tsvs); j++ {
			total++
			if !cones.Fanout(tsvs[i]).IntersectsExcluding(cones.Fanout(tsvs[j]), mask) {
				disjoint++
			}
		}
	}
	if frac := float64(disjoint) / float64(total); frac < 0.25 {
		t.Errorf("only %.0f%% of TSV pairs have disjoint cones; reuse needs modularity", 100*frac)
	}
}

// TestQuickEvaluateWordsMatchesScalar: on any random die, the single-pass
// word evaluator deconstant sweeps with (96 patterns, two words per
// signal) gives every signal the scalar Netlist.Evaluate value under each
// pattern. Across the dies every gate type the generator emits occurs.
func TestQuickEvaluateWordsMatchesScalar(t *testing.T) {
	const patterns, words = 96, 2
	seen := map[netlist.GateType]bool{}
	f := func(gatesRaw, ffsRaw, tsvRaw uint8, seed int64) bool {
		n, err := Random(RandomOptions{
			Gates: 20 + int(gatesRaw), FFs: int(ffsRaw % 12),
			InboundTSVs: int(tsvRaw % 10), OutboundTSVs: int(tsvRaw % 7), Seed: seed,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		vals := make([]uint64, words*n.NumGates())
		assigns := make([]map[netlist.SignalID]bool, patterns)
		for p := range assigns {
			assigns[p] = map[netlist.SignalID]bool{}
		}
		for i := range n.Gates {
			id := netlist.SignalID(i)
			seen[n.TypeOf(id)] = true
			switch n.TypeOf(id) {
			case netlist.GateInput, netlist.GateTSVIn, netlist.GateDFF:
				for p := range assigns {
					v := rng.Intn(2) == 1
					assigns[p][id] = v
					if v {
						vals[i*words+p/64] |= 1 << (p % 64)
					}
				}
			}
		}
		if err := n.Graph().EvaluateWords(vals); err != nil {
			t.Log(err)
			return false
		}
		for p, a := range assigns {
			want, err := n.Evaluate(a)
			if err != nil {
				t.Log(err)
				return false
			}
			for id, v := range want {
				if got := vals[id*words+p/64]>>(p%64)&1 == 1; got != v {
					t.Logf("pattern %d: %s = %v, scalar %v", p, n.NameOf(netlist.SignalID(id)), got, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	want := []netlist.GateType{netlist.GateInput, netlist.GateTSVIn, netlist.GateDFF}
	for _, g := range gateMix {
		want = append(want, g.typ)
	}
	for _, typ := range want {
		if !seen[typ] {
			t.Errorf("no random die had a %s gate", typ)
		}
	}
}
