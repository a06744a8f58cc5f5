package atpg

import (
	"math/rand"
	"testing"

	"wcm3d/internal/faults"
	"wcm3d/internal/faultsim"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
)

func mk(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ParseString("a", src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestVBasics(t *testing.T) {
	if V0.Neg() != V1 || V1.Neg() != V0 || VX.Neg() != VX {
		t.Error("Neg wrong")
	}
	if FromBool(true) != V1 || FromBool(false) != V0 {
		t.Error("FromBool wrong")
	}
	if V0.String() != "0" || V1.String() != "1" || VX.String() != "X" {
		t.Error("String wrong")
	}
}

func TestEvalGate3TruthTables(t *testing.T) {
	n := mk(t, `
INPUT(a)
INPUT(b)
g_and = AND(a, b)
g_or = OR(a, b)
g_xor = XOR(a, b)
g_nand = NAND(a, b)
OUTPUT(g_and)
OUTPUT(g_or)
OUTPUT(g_xor)
OUTPUT(g_nand)
`)
	eval3 := func(s string, fn func(int) V) V {
		i, _ := n.SignalByName(s)
		return evalGate3(n.TypeOf(i), n.Graph().FaninOf(i), fn)
	}
	cases := []struct {
		a, b                V
		and, or, xor, nand_ V
	}{
		{V0, V0, V0, V0, V0, V1},
		{V1, V1, V1, V1, V0, V0},
		{V0, VX, V0, VX, VX, V1}, // controlling 0 beats X for AND
		{V1, VX, VX, V1, VX, VX},
		{VX, VX, VX, VX, VX, VX},
	}
	for _, c := range cases {
		in := func(pin int) V {
			if pin == 0 {
				return c.a
			}
			return c.b
		}
		if got := eval3("g_and", in); got != c.and {
			t.Errorf("AND(%v,%v) = %v, want %v", c.a, c.b, got, c.and)
		}
		if got := eval3("g_or", in); got != c.or {
			t.Errorf("OR(%v,%v) = %v, want %v", c.a, c.b, got, c.or)
		}
		if got := eval3("g_xor", in); got != c.xor {
			t.Errorf("XOR(%v,%v) = %v, want %v", c.a, c.b, got, c.xor)
		}
		if got := eval3("g_nand", in); got != c.nand_ {
			t.Errorf("NAND(%v,%v) = %v, want %v", c.a, c.b, got, c.nand_)
		}
	}
}

func TestEvalGate3Mux(t *testing.T) {
	n := mk(t, "INPUT(s)\nINPUT(a)\nINPUT(b)\nm = MUX(s, a, b)\nOUTPUT(m)\n")
	mID, _ := n.SignalByName("m")
	fanin := n.Graph().FaninOf(mID)
	eval := func(s, a, b V) V {
		return evalGate3(netlist.GateMux2, fanin, func(pin int) V { return [3]V{s, a, b}[pin] })
	}
	if eval(V0, V1, V0) != V1 || eval(V1, V1, V0) != V0 {
		t.Error("mux select wrong")
	}
	if eval(VX, V1, V1) != V1 {
		t.Error("mux with X select and equal inputs must resolve")
	}
	if eval(VX, V1, V0) != VX {
		t.Error("mux with X select and different inputs must be X")
	}
}

func TestScoapBasics(t *testing.T) {
	n := mk(t, `
INPUT(a)
INPUT(b)
n1 = AND(a, b)
n2 = NOT(n1)
OUTPUT(n2)
`)
	sim := faultsim.New(n)
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	id := func(s string) netlist.SignalID { i, _ := n.SignalByName(s); return i }
	// AND: cc1 = cc1(a)+cc1(b)+1 = 3; cc0 = min(cc0)+1 = 2.
	if sc.cc1[id("n1")] != 3 || sc.cc0[id("n1")] != 2 {
		t.Errorf("AND cc = (%d,%d), want (2,3)", sc.cc0[id("n1")], sc.cc1[id("n1")])
	}
	// NOT swaps.
	if sc.cc0[id("n2")] != 4 || sc.cc1[id("n2")] != 3 {
		t.Errorf("NOT cc = (%d,%d), want (3,4)", sc.cc0[id("n2")], sc.cc1[id("n2")])
	}
	for _, s := range []string{"a", "b", "n1", "n2"} {
		if !sc.reachObs[id(s)] {
			t.Errorf("%s should reach the PO", s)
		}
	}
}

func TestScoapUncontrollableTSV(t *testing.T) {
	n := mk(t, `
TSV_IN(tv)
INPUT(a)
n1 = AND(tv, a)
OUTPUT(n1)
`)
	sim := faultsim.New(n)
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	id := func(s string) netlist.SignalID { i, _ := n.SignalByName(s); return i }
	if sc.cc1[id("tv")] < infCost {
		t.Error("floating TSV pad must be uncontrollable")
	}
	if sc.cc1[id("n1")] < infCost {
		t.Error("AND needing a floating TSV at 1 must be uncontrollable")
	}
	if sc.cc0[id("n1")] >= infCost {
		t.Error("AND is controllable to 0 through the PI")
	}
}

func TestScoapUnreachableObs(t *testing.T) {
	n := mk(t, `
INPUT(a)
hidden = NOT(a)
vis = BUF(a)
TSV_OUT(u) = hidden
OUTPUT(vis)
`)
	sim := faultsim.New(n)
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	id := func(s string) netlist.SignalID { i, _ := n.SignalByName(s); return i }
	if sc.reachObs[id("hidden")] {
		t.Error("logic observable only via an unwrapped outbound TSV must not reach obs")
	}
	if !sc.reachObs[id("vis")] {
		t.Error("PO cone must reach obs")
	}
}

// verifyPattern checks via the independent bit-parallel simulator that a
// pattern really detects the fault.
func verifyPattern(t *testing.T, n *netlist.Netlist, f faults.Fault, pat faultsim.Pattern) bool {
	t.Helper()
	sim := faultsim.New(n)
	eng := sim.NewEngine()
	block, err := sim.GoodSim([]faultsim.Pattern{pat})
	if err != nil {
		t.Fatal(err)
	}
	return eng.Detects(f, block)&1 != 0
}

func TestPodemFindsKnownTest(t *testing.T) {
	// z = AND(a,b); z s-a-0 requires a=1,b=1.
	n := mk(t, "INPUT(a)\nINPUT(b)\nz = AND(a, b)\nOUTPUT(z)\n")
	sim := faultsim.New(n)
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	pd := newPodem(n, sim, sc, 50)
	z, _ := n.SignalByName("z")
	rng := rand.New(rand.NewSource(1))
	pat, out := pd.generate(faults.Fault{Gate: z, Pin: faults.OutputPin, StuckAt: 0}, rng)
	if out != genFound {
		t.Fatalf("outcome = %v, want found", out)
	}
	a, _ := n.SignalByName("a")
	b, _ := n.SignalByName("b")
	ai, _ := sim.SourceIndex(a)
	bi, _ := sim.SourceIndex(b)
	if !pat.Get(ai) || !pat.Get(bi) {
		t.Errorf("s-a-0 test for AND output must set both inputs to 1")
	}
	if !verifyPattern(t, n, faults.Fault{Gate: z, Pin: faults.OutputPin, StuckAt: 0}, pat) {
		t.Error("generated pattern does not detect the fault")
	}
}

func TestPodemProvesUntestable(t *testing.T) {
	// Redundant fault: z = OR(a, NOT(a)) is constant 1; z s-a-1 is
	// undetectable.
	n := mk(t, "INPUT(a)\nna = NOT(a)\nz = OR(a, na)\nOUTPUT(z)\n")
	sim := faultsim.New(n)
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	pd := newPodem(n, sim, sc, 100)
	z, _ := n.SignalByName("z")
	rng := rand.New(rand.NewSource(1))
	_, out := pd.generate(faults.Fault{Gate: z, Pin: faults.OutputPin, StuckAt: 1}, rng)
	if out != genUntestable {
		t.Errorf("outcome = %v, want untestable (z is constant 1)", out)
	}
	// The complementary fault is easy.
	pat, out := pd.generate(faults.Fault{Gate: z, Pin: faults.OutputPin, StuckAt: 0}, rng)
	if out != genFound {
		t.Fatalf("z s-a-0 must be testable, got %v", out)
	}
	if !verifyPattern(t, n, faults.Fault{Gate: z, Pin: faults.OutputPin, StuckAt: 0}, pat) {
		t.Error("pattern fails verification")
	}
}

func TestPodemAllFaultsOnRandomCircuit(t *testing.T) {
	// Every PODEM "found" claim must be verified by the independent
	// simulator; every "untestable" claim must be contradicted by no
	// random pattern.
	n, err := netgen.Random(netgen.RandomOptions{Gates: 150, FFs: 14, PIs: 6, POs: 4, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	sim := faultsim.New(n)
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	pd := newPodem(n, sim, sc, 600)
	rng := rand.New(rand.NewSource(7))
	eng := sim.NewEngine()

	// Random reference detection set.
	ref := make(map[int]bool)
	list := faults.CollapsedList(n)
	for blk := 0; blk < 8; blk++ {
		pats := make([]faultsim.Pattern, 64)
		for i := range pats {
			pats[i] = sim.RandomPattern(rng)
		}
		block, err := sim.GoodSim(pats)
		if err != nil {
			t.Fatal(err)
		}
		for fi, f := range list {
			if eng.Detects(f, block) != 0 {
				ref[fi] = true
			}
		}
	}

	found, untestable, aborted := 0, 0, 0
	for fi, f := range list {
		pat, out := pd.generate(f, rng)
		switch out {
		case genFound:
			found++
			if !verifyPattern(t, n, f, pat) {
				t.Fatalf("PODEM claims test for %s but simulator disagrees", f.Describe(n))
			}
		case genUntestable:
			untestable++
			if ref[fi] {
				t.Fatalf("PODEM claims %s untestable but a random pattern detects it", f.Describe(n))
			}
		case genAborted:
			aborted++
		}
	}
	if found == 0 {
		t.Fatal("PODEM found no tests at all")
	}
	t.Logf("found=%d untestable=%d aborted=%d of %d", found, untestable, aborted, len(list))
	// Generated random logic carries genuine redundancy; what matters is
	// that nearly every fault is resolved (found or proven untestable)
	// rather than aborted.
	if resolved := found + untestable; float64(resolved) < 0.95*float64(len(list)) {
		t.Errorf("PODEM resolved only %d/%d faults (found %d, untestable %d, aborted %d)",
			resolved, len(list), found, untestable, aborted)
	}
	if float64(found) < 0.55*float64(len(list)) {
		t.Errorf("PODEM found tests for only %d/%d faults", found, len(list))
	}
}

func TestRunStuckAtHighCoverage(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 400, FFs: 16, PIs: 6, POs: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	list := faults.CollapsedList(n)
	res, err := Run(n, list, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A bare source-poor random circuit is the worst case for coverage:
	// generated redundancy shows up as untestable faults, and only ~20
	// observation points exist. The paper-suite dies are far friendlier
	// (every wrapped TSV is a test point); their coverage is checked in
	// internal/experiments.
	if res.Coverage() < 0.60 {
		t.Errorf("fault coverage = %.4f, want >= 0.60 on a fully observable circuit", res.Coverage())
	}
	if res.TestCoverage() < 0.80 {
		t.Errorf("test coverage = %.4f, want >= 0.80 (untestable faults excluded)", res.TestCoverage())
	}
	if res.PatternCount() == 0 || res.PatternCount() > len(list) {
		t.Errorf("pattern count %d out of range", res.PatternCount())
	}
	// Re-grade the pattern set independently: must match Detected.
	camp, err := faultsim.New(n).RunCampaign(res.Patterns, list)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(camp.Coverage()*float64(len(list)) + 0.5); got != res.Detected {
		t.Errorf("independent grading detects %d, result says %d", got, res.Detected)
	}
	// Compaction keeps only first detectors, and removing the others
	// leaves each fault's first detector in place.
	for i, u := range camp.UsefulPattern {
		if !u {
			t.Errorf("pattern %d of %d is no fault's first detector", i, len(res.Patterns))
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 150, FFs: 8, PIs: 4, POs: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	list := faults.CollapsedList(n)
	r1, err := Run(n, list, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(n, list, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Detected != r2.Detected || r1.PatternCount() != r2.PatternCount() {
		t.Errorf("ATPG not deterministic: (%d,%d) vs (%d,%d)",
			r1.Detected, r1.PatternCount(), r2.Detected, r2.PatternCount())
	}
}

func TestRunCompactionShrinks(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 300, FFs: 12, PIs: 5, POs: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	list := faults.CollapsedList(n)
	full, err := Run(n, list, Options{Seed: 3, DisableCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Run(n, list, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if comp.PatternCount() > full.PatternCount() {
		t.Errorf("compaction grew the pattern set: %d > %d", comp.PatternCount(), full.PatternCount())
	}
	if comp.Coverage() < full.Coverage()-1e-9 {
		t.Errorf("compaction lost coverage: %.4f < %.4f", comp.Coverage(), full.Coverage())
	}
}

func TestRunTransition(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 250, FFs: 10, PIs: 5, POs: 3, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	list := faults.TransitionList(n)
	res, err := RunTransition(n, list, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.55 {
		t.Errorf("transition fault coverage = %.4f, want >= 0.55", res.Coverage())
	}
	if res.TestCoverage() < 0.70 {
		t.Errorf("transition test coverage = %.4f, want >= 0.70", res.TestCoverage())
	}
	if res.PatternCount() != 2*len(res.Pairs) {
		t.Error("PatternCount must be twice the pair count")
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no transition pairs generated")
	}
}

// TestRunTransitionDetectedMatchesResimulation grades RunTransition's final
// pairs from scratch: a pair detects a transition fault when V2 detects the
// equivalent stuck-at fault and V1 sets the site to the initial value.
func TestRunTransitionDetectedMatchesResimulation(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 250, FFs: 10, PIs: 5, POs: 3, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	list := faults.TransitionList(n)
	sim := faultsim.New(n)
	for _, opts := range []Options{
		{Seed: 6},
		{Seed: 6, DisableCompaction: true},
		{Seed: 2, MaxRandomBlocks: 2, MaxBacktracks: 6, MaxDeterministic: 40},
	} {
		res, err := RunTransition(n, list, opts)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		detected := make([]bool, len(list))
		for base := 0; base < len(res.Pairs); base += 64 {
			var v1, v2 []faultsim.Pattern
			for _, p := range res.Pairs[base:min(base+64, len(res.Pairs))] {
				v1 = append(v1, p.V1)
				v2 = append(v2, p.V2)
			}
			g1, err := sim.GoodSim(v1)
			if err != nil {
				t.Fatal(err)
			}
			g2, err := sim.GoodSim(v2)
			if err != nil {
				t.Fatal(err)
			}
			for fi, f := range list {
				if detected[fi] {
					continue
				}
				var initMask uint64
				for k := 0; k < g1.NPat; k++ {
					if v, known := g1.Val(f.Gate, k); known && v == (f.InitialValue() == 1) {
						initMask |= 1 << uint(k)
					}
				}
				detected[fi] = eng.Detects(f.Equivalent(), g2)&initMask != 0
			}
		}
		got := 0
		for _, d := range detected {
			if d {
				got++
			}
		}
		if got != res.Detected {
			t.Errorf("%+v: re-simulating %d pairs detects %d faults, result says %d",
				opts, len(res.Pairs), got, res.Detected)
		}
	}
}

func TestTransitionNeedsBothVectors(t *testing.T) {
	// A constant site can never transition: both transition faults on a
	// constant-fed buffer must be untestable while the stuck-at view
	// would find one of them.
	n := mk(t, `
INPUT(a)
c = CONST1()
z = BUF(c)
keep = AND(a, z)
OUTPUT(keep)
`)
	list := []faults.TransitionFault{}
	zID, _ := n.SignalByName("z")
	list = append(list,
		faults.TransitionFault{Gate: zID, SlowToRise: true},
		faults.TransitionFault{Gate: zID, SlowToRise: false},
	)
	res, err := RunTransition(n, list, Options{Seed: 1, MaxRandomBlocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 0 {
		t.Errorf("transition faults on constant logic detected (%d); V1 can never set the opposite value", res.Detected)
	}
}

func TestRunEmptySourcesFails(t *testing.T) {
	n := mk(t, "TSV_IN(t)\nz = BUF(t)\nOUTPUT(z)\n")
	if _, err := Run(n, faults.CollapsedList(n), Options{}); err == nil {
		t.Error("die with no controllable sources must error")
	}
}

func TestJustifyVector(t *testing.T) {
	// justifyVector must produce an assignment that sets the target
	// value, verified by forward simulation.
	n, err := netgen.Random(netgen.RandomOptions{Gates: 120, FFs: 8, PIs: 5, POs: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	sim := faultsim.New(n)
	sc := computeScoap(n,
		func(s netlist.SignalID) bool { _, ok := sim.SourceIndex(s); return ok },
		sim.Observed)
	pd := newPodem(n, sim, sc, 300)
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for i := 0; i < n.NumGates() && checked < 30; i += 3 {
		id := netlist.SignalID(i)
		if !n.TypeOf(id).IsCombinational() {
			continue
		}
		for _, v := range []V{V0, V1} {
			pat, out := pd.justifyVector(id, v, rng)
			if out != genFound {
				continue // may be genuinely unjustifiable (constants)
			}
			block, err := sim.GoodSim([]faultsim.Pattern{pat})
			if err != nil {
				t.Fatal(err)
			}
			got, known := block.Val(id, 0)
			if !known || got != (v == V1) {
				t.Fatalf("justify(%s=%v): simulation says (%v, known=%v)",
					n.NameOf(id), v, got, known)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d justifications verified", checked)
	}
}

func TestRandomPhaseOnlyVsFull(t *testing.T) {
	// The deterministic phase must add coverage over random-only.
	n, err := netgen.Random(netgen.RandomOptions{Gates: 300, FFs: 12, PIs: 5, POs: 3, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	list := faults.CollapsedList(n)
	randOnly, err := Run(n, list, Options{Seed: 9, MaxBacktracks: 1, MaxRandomBlocks: 4, MinNewDetects: 1000})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(n, list, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if full.Detected <= randOnly.Detected {
		t.Errorf("full flow detected %d, random-only %d", full.Detected, randOnly.Detected)
	}
}

func TestMaxDeterministicCap(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 300, FFs: 12, PIs: 5, POs: 3, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	list := faults.CollapsedList(n)
	// Zero random phase, deterministic cap of 5: at most 5 faults can be
	// detected (each pattern may collaterally drop more via flushes, so
	// compare against an uncapped run instead of an exact count).
	capped, err := Run(n, list, Options{
		Seed: 3, MaxRandomBlocks: 1, MinNewDetects: 1 << 30, MaxDeterministic: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	uncapped, err := Run(n, list, Options{
		Seed: 3, MaxRandomBlocks: 1, MinNewDetects: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped.PatternCount() > uncapped.PatternCount() {
		t.Errorf("cap must not grow the pattern set: %d > %d",
			capped.PatternCount(), uncapped.PatternCount())
	}
	if capped.Detected >= uncapped.Detected {
		t.Errorf("capped run detected %d, uncapped %d: cap had no effect",
			capped.Detected, uncapped.Detected)
	}
}
