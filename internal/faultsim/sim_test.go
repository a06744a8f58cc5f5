package faultsim

import (
	"math/rand"
	"testing"

	"wcm3d/internal/faults"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
)

func mk(t *testing.T, src string) *netlist.Netlist {
	t.Helper()
	n, err := netlist.ParseString("f", src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGoodSimMatchesScalarEvaluate(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 300, FFs: 10, PIs: 6, POs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := New(n)
	rng := rand.New(rand.NewSource(1))
	pats := make([]Pattern, 64)
	for i := range pats {
		pats[i] = s.RandomPattern(rng)
	}
	block, err := s.GoodSim(pats)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check a handful of patterns against the scalar evaluator.
	for _, k := range []int{0, 13, 63} {
		assign := map[netlist.SignalID]bool{}
		for j, sig := range s.Sources {
			assign[sig] = pats[k].Get(j)
		}
		want, err := n.Evaluate(assign)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n.Gates {
			id := netlist.SignalID(i)
			v, known := block.Val(id, k)
			if !known {
				continue // X from TSV pads; scalar sim has no X notion
			}
			if v != want[id] {
				t.Fatalf("pattern %d signal %s: parallel=%v scalar=%v", k, n.NameOf(id), v, want[id])
			}
		}
	}
}

func TestGoodSimXSemantics(t *testing.T) {
	// TSV pad t is X. AND(t,0)=0 known, OR(t,1)=1 known, XOR(t,a)=X,
	// MUX(x, a, a) = a known.
	n := mk(t, `
INPUT(a)
INPUT(zero_src)
TSV_IN(t)
g_and = AND(t, n_zero)
g_or = OR(t, n_one)
g_xor = XOR(t, a)
g_mux = MUX(t, a, a)
n_zero = CONST0()
n_one = CONST1()
OUTPUT(g_and)
OUTPUT(g_or)
OUTPUT(g_xor)
OUTPUT(g_mux)
`)
	s := New(n)
	p := NewPattern(s.NumSources())
	ai, _ := s.SourceIndex(mustID(t, n, "a"))
	p.Set(ai, true)
	b, err := s.GoodSim([]Pattern{p})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, wantV, wantKnown bool) {
		t.Helper()
		v, k := b.Val(mustID(t, n, name), 0)
		if k != wantKnown || (k && v != wantV) {
			t.Errorf("%s = (v=%v,known=%v), want (v=%v,known=%v)", name, v, k, wantV, wantKnown)
		}
	}
	check("t", false, false)
	check("g_and", false, true) // X & 0 = 0
	check("g_or", true, true)   // X | 1 = 1
	check("g_xor", false, false)
	check("g_mux", true, true) // both mux data inputs equal a=1
}

func mustID(t *testing.T, n *netlist.Netlist, name string) netlist.SignalID {
	t.Helper()
	id, ok := n.SignalByName(name)
	if !ok {
		t.Fatalf("no signal %q", name)
	}
	return id
}

func TestGoodSimRejectsBadBlock(t *testing.T) {
	n := mk(t, "INPUT(a)\nz = NOT(a)\nOUTPUT(z)\n")
	s := New(n)
	if _, err := s.GoodSim(nil); err == nil {
		t.Error("empty block should fail")
	}
	pats := make([]Pattern, 65)
	for i := range pats {
		pats[i] = NewPattern(s.NumSources())
	}
	if _, err := s.GoodSim(pats); err == nil {
		t.Error("65-pattern block should fail")
	}
}

// bruteDetect is a scalar reference implementation of single-fault
// detection used to validate the event-driven engine.
func bruteDetect(n *netlist.Netlist, s *Simulator, f faults.Fault, assign map[netlist.SignalID]bool) bool {
	good, err := n.Evaluate(assign)
	if err != nil {
		panic(err)
	}
	faulty := make([]bool, n.NumGates())
	for _, id := range n.Graph().Order {
		g := n.Gate(id)
		var v bool
		switch g.Type {
		case netlist.GateConst0:
			v = false
		case netlist.GateConst1:
			v = true
		case netlist.GateInput, netlist.GateTSVIn, netlist.GateDFF:
			v = assign[id]
		default:
			v = scalarEval(g, func(pin int) bool {
				if f.Pin != faults.OutputPin && id == f.Gate && pin == int(f.Pin) {
					return f.StuckAt == 1
				}
				return faulty[g.Fanin[pin]]
			})
		}
		if f.Pin == faults.OutputPin && id == f.Gate {
			v = f.StuckAt == 1
		}
		faulty[id] = v
	}
	// DFF D-pin branch fault: compare the captured value directly.
	if f.Pin != faults.OutputPin && n.TypeOf(f.Gate) == netlist.GateDFF {
		d := n.Gate(f.Gate).Fanin[f.Pin]
		return good[d] != (f.StuckAt == 1)
	}
	for i := range good {
		if obs := netlist.SignalID(i); s.Observed(obs) && good[obs] != faulty[obs] {
			return true
		}
	}
	return false
}

func scalarEval(g *netlist.Gate, in func(int) bool) bool {
	switch g.Type {
	case netlist.GateBuf:
		return in(0)
	case netlist.GateNot:
		return !in(0)
	case netlist.GateAnd, netlist.GateNand:
		v := true
		for i := range g.Fanin {
			v = v && in(i)
		}
		if g.Type == netlist.GateNand {
			return !v
		}
		return v
	case netlist.GateOr, netlist.GateNor:
		v := false
		for i := range g.Fanin {
			v = v || in(i)
		}
		if g.Type == netlist.GateNor {
			return !v
		}
		return v
	case netlist.GateXor, netlist.GateXnor:
		v := false
		for i := range g.Fanin {
			v = v != in(i)
		}
		if g.Type == netlist.GateXnor {
			return !v
		}
		return v
	case netlist.GateMux2:
		if in(0) {
			return in(2)
		}
		return in(1)
	default:
		return false
	}
}

func TestDetectsMatchesBruteForce(t *testing.T) {
	// No TSVs: every source controllable, so scalar 2-valued brute force
	// is exact.
	n, err := netgen.Random(netgen.RandomOptions{Gates: 150, FFs: 8, PIs: 5, POs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := New(n)
	eng := s.NewEngine()
	rng := rand.New(rand.NewSource(2))
	pats := make([]Pattern, 16)
	for i := range pats {
		pats[i] = s.RandomPattern(rng)
	}
	block, err := s.GoodSim(pats)
	if err != nil {
		t.Fatal(err)
	}
	list := faults.CollapsedList(n)
	for _, f := range list {
		det := eng.Detects(f, block)
		for k := 0; k < len(pats); k++ {
			assign := map[netlist.SignalID]bool{}
			for j, sig := range s.Sources {
				assign[sig] = pats[k].Get(j)
			}
			want := bruteDetect(n, s, f, assign)
			got := det&(1<<uint(k)) != 0
			if got != want {
				t.Fatalf("fault %s pattern %d: engine=%v brute=%v", f.Describe(n), k, got, want)
			}
		}
	}
}

func TestFaultBehindTSVOutUndetectable(t *testing.T) {
	// Logic observable only through an outbound TSV (no wrapper) is
	// untestable pre-bond.
	n := mk(t, `
INPUT(a)
INPUT(b)
hidden = AND(a, b)
visible = OR(a, b)
TSV_OUT(u) = hidden
OUTPUT(z) = visible
`)
	s := New(n)
	eng := s.NewEngine()
	rng := rand.New(rand.NewSource(3))
	pats := make([]Pattern, 8)
	for i := range pats {
		pats[i] = s.RandomPattern(rng)
	}
	block, err := s.GoodSim(pats)
	if err != nil {
		t.Fatal(err)
	}
	hid := mustID(t, n, "hidden")
	if det := eng.Detects(faults.Fault{Gate: hid, Pin: faults.OutputPin, StuckAt: 0}, block); det != 0 {
		t.Errorf("fault on TSV_OUT-only cone detected (det=%b): outbound TSVs are unobservable pre-bond", det)
	}
	vis := mustID(t, n, "visible")
	if det := eng.Detects(faults.Fault{Gate: vis, Pin: faults.OutputPin, StuckAt: 0}, block); det == 0 {
		t.Error("fault on PO cone should be detectable")
	}
}

func TestFaultBehindFloatingTSVInUndetectable(t *testing.T) {
	// A fault whose activation requires a floating (X) inbound TSV value
	// cannot be definitively detected.
	n := mk(t, `
TSV_IN(t)
INPUT(a)
g = XOR(t, a)
OUTPUT(g)
`)
	s := New(n)
	eng := s.NewEngine()
	p := NewPattern(s.NumSources())
	block, err := s.GoodSim([]Pattern{p})
	if err != nil {
		t.Fatal(err)
	}
	g := mustID(t, n, "g")
	if det := eng.Detects(faults.Fault{Gate: g, Pin: faults.OutputPin, StuckAt: 1}, block); det != 0 {
		t.Error("good value is X at the only observation point; detection must not be claimed")
	}
}

func TestDFFCaptureObserves(t *testing.T) {
	// A fault is detected through a flip-flop D pin (scan capture).
	n := mk(t, `
INPUT(a)
g = NOT(a)
q = DFF(g)
OUTPUT(z) = q
`)
	s := New(n)
	if !s.Observed(mustID(t, n, "g")) {
		t.Fatal("D-pin driver must be observed")
	}
	eng := s.NewEngine()
	p := NewPattern(s.NumSources())
	ai, _ := s.SourceIndex(mustID(t, n, "a"))
	p.Set(ai, true) // a=1 -> g=0; s-a-1 detected
	block, err := s.GoodSim([]Pattern{p})
	if err != nil {
		t.Fatal(err)
	}
	g := mustID(t, n, "g")
	if det := eng.Detects(faults.Fault{Gate: g, Pin: faults.OutputPin, StuckAt: 1}, block); det != 1 {
		t.Errorf("det = %b, want detection via scan capture", det)
	}
}

func TestRunCampaign(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 200, FFs: 20, PIs: 6, POs: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	s := New(n)
	rng := rand.New(rand.NewSource(4))
	pats := make([]Pattern, 256)
	for i := range pats {
		pats[i] = s.RandomPattern(rng)
	}
	list := faults.CollapsedList(n)
	c, err := s.RunCampaign(pats, list)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDetected == 0 {
		t.Fatal("random patterns should detect something")
	}
	if c.Coverage() <= 0.45 {
		t.Errorf("random coverage %v suspiciously low for a fully controllable circuit", c.Coverage())
	}
	// FirstDetector consistency.
	for i, d := range c.Detected {
		if d && (c.FirstDetector[i] < 0 || c.FirstDetector[i] >= len(pats)) {
			t.Errorf("fault %d detected but FirstDetector=%d", i, c.FirstDetector[i])
		}
		if !d && c.FirstDetector[i] != -1 {
			t.Errorf("fault %d undetected but FirstDetector=%d", i, c.FirstDetector[i])
		}
		if d && !c.UsefulPattern[c.FirstDetector[i]] {
			t.Errorf("pattern %d first-detected fault %d but not marked useful", c.FirstDetector[i], i)
		}
	}
}

func TestPatternSetGet(t *testing.T) {
	p := NewPattern(130)
	p.Set(129, true)
	p.Set(0, true)
	if !p.Get(129) || !p.Get(0) || p.Get(64) {
		t.Error("pattern bit accessors broken")
	}
	p.Set(129, false)
	if p.Get(129) {
		t.Error("clear failed")
	}
	q := p.Clone()
	q.Set(5, true)
	if p.Get(5) {
		t.Error("clone shares storage")
	}
}

// TestEngineIndependence: two engines over the same simulator must agree,
// and reusing one engine across faults must not leak state.
func TestEngineIndependence(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 150, FFs: 8, PIs: 5, POs: 3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	s := New(n)
	rng := rand.New(rand.NewSource(7))
	pats := make([]Pattern, 32)
	for i := range pats {
		pats[i] = s.RandomPattern(rng)
	}
	block, err := s.GoodSim(pats)
	if err != nil {
		t.Fatal(err)
	}
	list := faults.CollapsedList(n)
	e1 := s.NewEngine()
	e2 := s.NewEngine()
	// e1 processes everything in order; e2 processes in reverse. Words
	// must match fault by fault.
	fwd := make([]uint64, len(list))
	for i, f := range list {
		fwd[i] = e1.Detects(f, block)
	}
	for i := len(list) - 1; i >= 0; i-- {
		if got := e2.Detects(list[i], block); got != fwd[i] {
			t.Fatalf("fault %s: fresh-engine word %b != reused-engine %b",
				list[i].Describe(n), got, fwd[i])
		}
	}
	// Detection words never exceed the block mask.
	mask := uint64(1)<<uint(len(pats)) - 1
	for i := range fwd {
		if fwd[i]&^mask != 0 {
			t.Fatalf("detection word %b has bits beyond the %d-pattern mask", fwd[i], len(pats))
		}
	}
}

// TestDetectsAgreesWithCampaign: the campaign's verdicts must match
// per-fault Detects calls.
func TestDetectsAgreesWithCampaign(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 120, FFs: 6, PIs: 4, POs: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	s := New(n)
	rng := rand.New(rand.NewSource(5))
	pats := make([]Pattern, 48)
	for i := range pats {
		pats[i] = s.RandomPattern(rng)
	}
	list := faults.CollapsedList(n)
	camp, err := s.RunCampaign(pats, list)
	if err != nil {
		t.Fatal(err)
	}
	eng := s.NewEngine()
	block, err := s.GoodSim(pats)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range list {
		want := eng.Detects(f, block) != 0
		if camp.Detected[i] != want {
			t.Fatalf("fault %s: campaign=%v direct=%v", f.Describe(n), camp.Detected[i], want)
		}
	}
}
