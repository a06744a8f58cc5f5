package netlist

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// buildSmall constructs a small mixed circuit by hand:
//
//	INPUT(a) INPUT(b) TSV_IN(t0)
//	q = DFF(n2)
//	n1 = AND(a, t0)
//	n2 = XOR(n1, q)
//	OUTPUT(z) = n2
//	TSV_OUT(u0) = n1
func buildSmall(t *testing.T) (*Netlist, map[string]SignalID) {
	t.Helper()
	n := New("small")
	ids := map[string]SignalID{}
	add := func(typ GateType, name string, fanin ...SignalID) SignalID {
		id, err := n.AddGate(typ, name, fanin...)
		if err != nil {
			t.Fatalf("AddGate(%s): %v", name, err)
		}
		ids[name] = id
		return id
	}
	a := add(GateInput, "a")
	b := add(GateInput, "b")
	_ = b
	t0 := add(GateTSVIn, "t0")
	n1 := add(GateAnd, "n1", a, t0)
	// DFF references n2 which doesn't exist yet; build n2 first then DFF,
	// then rewire to create the feedback through the FF.
	q := add(GateDFF, "q", n1) // placeholder D
	n2 := add(GateXor, "n2", n1, q)
	if err := n.RewireFanin(q, 0, n2); err != nil {
		t.Fatalf("RewireFanin: %v", err)
	}
	if err := n.AddOutput("z", n2, PortPO); err != nil {
		t.Fatalf("AddOutput z: %v", err)
	}
	if err := n.AddOutput("u0", n1, PortTSVOut); err != nil {
		t.Fatalf("AddOutput u0: %v", err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return n, ids
}

func TestAddGateValidation(t *testing.T) {
	n := New("t")
	if _, err := n.AddGate(GateAnd, "g"); err == nil {
		t.Error("AND with no fanin should fail")
	}
	if _, err := n.AddGate(GateInput, ""); err == nil {
		t.Error("empty name should fail")
	}
	a, err := n.AddGate(GateInput, "a")
	if err != nil {
		t.Fatalf("AddGate: %v", err)
	}
	if _, err := n.AddGate(GateInput, "a"); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate name: got %v, want ErrDuplicateName", err)
	}
	if _, err := n.AddGate(GateNot, "x", SignalID(99)); !errors.Is(err, ErrUnknownSignal) {
		t.Errorf("bad fanin: got %v, want ErrUnknownSignal", err)
	}
	if _, err := n.AddGate(GateNot, "x", a, a); err == nil {
		t.Error("NOT with two fanins should fail")
	}
	if _, err := n.AddGate(GateMux2, "m", a, a); err == nil {
		t.Error("MUX with two fanins should fail")
	}
}

func TestClassifiers(t *testing.T) {
	n, _ := buildSmall(t)
	if got := len(n.Inputs()); got != 2 {
		t.Errorf("Inputs: got %d, want 2", got)
	}
	if got := len(n.InboundTSVs()); got != 1 {
		t.Errorf("InboundTSVs: got %d, want 1", got)
	}
	if got := len(n.FlipFlops()); got != 1 {
		t.Errorf("FlipFlops: got %d, want 1", got)
	}
	if got := len(n.OutboundTSVs()); got != 1 {
		t.Errorf("OutboundTSVs: got %d, want 1", got)
	}
	if got := len(n.PrimaryOutputs()); got != 1 {
		t.Errorf("PrimaryOutputs: got %d, want 1", got)
	}
	if got := n.NumLogicGates(); got != 2 {
		t.Errorf("NumLogicGates: got %d, want 2 (AND, XOR)", got)
	}
	st := CollectStats(n)
	if st.TSVs() != 2 || st.ScanFFs != 1 || st.LogicGates != 2 {
		t.Errorf("CollectStats: got %+v", st)
	}
}

func TestTopoOrderAndLevels(t *testing.T) {
	n, ids := buildSmall(t)
	g := n.Graph()
	order := g.Order
	if len(order) != n.NumGates() {
		t.Fatalf("Order covers %d of %d gates", len(order), n.NumGates())
	}
	pos := make(map[SignalID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	// Every combinational gate must come after its fanins.
	for i := range n.Gates {
		g := &n.Gates[i]
		if !g.Type.IsCombinational() {
			continue
		}
		for _, f := range g.Fanin {
			if pos[f] >= pos[SignalID(i)] {
				t.Errorf("gate %s at %d before fanin %s at %d",
					g.Name, pos[SignalID(i)], n.NameOf(f), pos[f])
			}
		}
	}
	if lvl := g.Level[ids["a"]]; lvl != 0 {
		t.Errorf("Level(a) = %d, want 0", lvl)
	}
	if lvl := g.Level[ids["n1"]]; lvl != 1 {
		t.Errorf("Level(n1) = %d, want 1", lvl)
	}
	if lvl := g.Level[ids["n2"]]; lvl != 2 {
		t.Errorf("Level(n2) = %d, want 2", lvl)
	}
	if g.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d, want 2", g.MaxLevel())
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := New("cyc")
	a := n.MustAddGate(GateInput, "a")
	g1 := n.MustAddGate(GateAnd, "g1", a, a)
	g2 := n.MustAddGate(GateOr, "g2", g1, a)
	if err := n.RewireFanin(g1, 1, g2); err != nil {
		t.Fatalf("RewireFanin: %v", err)
	}
	if err := n.Validate(); err == nil {
		t.Error("combinational cycle not detected")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDFFBreaksCycle(t *testing.T) {
	// A DFF in a loop is sequential, not combinational: must validate.
	n := New("seq")
	a := n.MustAddGate(GateInput, "a")
	q := n.MustAddGate(GateDFF, "q", a) // placeholder
	g := n.MustAddGate(GateXor, "g", a, q)
	if err := n.RewireFanin(q, 0, g); err != nil {
		t.Fatalf("RewireFanin: %v", err)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("sequential loop should validate: %v", err)
	}
}

// fanoutCount is the electrical fanout of id: the gate pins it drives
// plus the output ports observing it.
func fanoutCount(n *Netlist, id SignalID) int {
	c := len(n.Graph().FanoutOf(id))
	for _, o := range n.Outputs {
		if o.Signal == id {
			c++
		}
	}
	return c
}

func TestFanouts(t *testing.T) {
	n, ids := buildSmall(t)
	g := n.Graph()
	// n1 feeds n2 and q's D pin? No: q.D = n2. n1 feeds n2 only (plus
	// the TSV_OUT port, which is not a gate).
	if got := len(g.FanoutOf(ids["n1"])); got != 1 {
		t.Errorf("fanout(n1) gates = %d, want 1", got)
	}
	if got := fanoutCount(n, ids["n1"]); got != 2 {
		t.Errorf("fanoutCount(n1) = %d, want 2 (XOR + TSV_OUT port)", got)
	}
	if got := fanoutCount(n, ids["n2"]); got != 2 {
		t.Errorf("fanoutCount(n2) = %d, want 2 (DFF D + OUTPUT port)", got)
	}
}

// TestGraphListsAreCapped checks that appending to a FanoutOf or FaninOf
// result copies out instead of overwriting a neighboring list.
func TestGraphListsAreCapped(t *testing.T) {
	n, _ := buildSmall(t)
	g := n.Graph()
	fanout, fanin := slices.Clone(g.Fanout), slices.Clone(g.Fanin)
	for id := SignalID(0); int(id) < g.NumGates(); id++ {
		_ = append(g.FanoutOf(id), InvalidSignal)
		_ = append(g.FaninOf(id), InvalidSignal)
	}
	if !slices.Equal(g.Fanout, fanout) {
		t.Errorf("appends through FanoutOf changed Fanout: %v, want %v", g.Fanout, fanout)
	}
	if !slices.Equal(g.Fanin, fanin) {
		t.Errorf("appends through FaninOf changed Fanin: %v, want %v", g.Fanin, fanin)
	}
}

func TestEvaluate(t *testing.T) {
	n, ids := buildSmall(t)
	cases := []struct {
		a, t0, q       bool
		wantN1, wantN2 bool
	}{
		{false, false, false, false, false},
		{true, true, false, true, true},
		{true, true, true, true, false},
		{true, false, true, false, true},
	}
	for _, c := range cases {
		vals, err := n.Evaluate(map[SignalID]bool{
			ids["a"]: c.a, ids["b"]: false, ids["t0"]: c.t0, ids["q"]: c.q,
		})
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		if vals[ids["n1"]] != c.wantN1 || vals[ids["n2"]] != c.wantN2 {
			t.Errorf("a=%v t0=%v q=%v: n1=%v n2=%v, want %v %v",
				c.a, c.t0, c.q, vals[ids["n1"]], vals[ids["n2"]], c.wantN1, c.wantN2)
		}
	}
}

func TestEvaluateMissingSource(t *testing.T) {
	n, ids := buildSmall(t)
	if _, err := n.Evaluate(map[SignalID]bool{ids["a"]: true}); err == nil {
		t.Error("Evaluate with missing source should fail")
	}
}

func TestEvaluateAllGateTypes(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(s)
g_buf = BUF(a)
g_not = NOT(a)
g_and = AND(a, b)
g_nand = NAND(a, b)
g_or = OR(a, b)
g_nor = NOR(a, b)
g_xor = XOR(a, b)
g_xnor = XNOR(a, b)
g_mux = MUX(s, a, b)
g_c0 = CONST0()
g_c1 = CONST1()
OUTPUT(g_mux)
`
	n, err := ParseString("alltypes", src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	get := func(name string) SignalID {
		id, ok := n.SignalByName(name)
		if !ok {
			t.Fatalf("no signal %q", name)
		}
		return id
	}
	for _, c := range []struct{ a, b, s bool }{
		{false, false, false}, {false, true, false}, {true, false, true}, {true, true, true},
	} {
		vals, err := n.Evaluate(map[SignalID]bool{get("a"): c.a, get("b"): c.b, get("s"): c.s})
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		check := func(name string, want bool) {
			if got := vals[get(name)]; got != want {
				t.Errorf("a=%v b=%v s=%v: %s = %v, want %v", c.a, c.b, c.s, name, got, want)
			}
		}
		check("g_buf", c.a)
		check("g_not", !c.a)
		check("g_and", c.a && c.b)
		check("g_nand", !(c.a && c.b))
		check("g_or", c.a || c.b)
		check("g_nor", !(c.a || c.b))
		check("g_xor", c.a != c.b)
		check("g_xnor", c.a == c.b)
		want := c.a
		if c.s {
			want = c.b
		}
		check("g_mux", want)
		check("g_c0", false)
		check("g_c1", true)
	}
}

func TestClone(t *testing.T) {
	n, ids := buildSmall(t)
	c := n.Clone()
	if c.NumGates() != n.NumGates() || len(c.Outputs) != len(n.Outputs) {
		t.Fatal("clone size mismatch")
	}
	// Mutating the clone must not touch the original.
	newIn := c.MustAddGate(GateInput, "extra")
	if err := c.RewireFanin(ids["n1"], 0, newIn); err != nil {
		t.Fatalf("RewireFanin on clone: %v", err)
	}
	if n.Gates[ids["n1"]].Fanin[0] != ids["a"] {
		t.Error("clone mutation leaked into original")
	}
	if _, ok := n.SignalByName("extra"); ok {
		t.Error("clone name map shared with original")
	}
}

func TestRewireOutput(t *testing.T) {
	n, ids := buildSmall(t)
	if err := n.RewireOutput(0, ids["n1"]); err != nil {
		t.Fatalf("RewireOutput: %v", err)
	}
	if n.Outputs[0].Signal != ids["n1"] {
		t.Error("RewireOutput did not take effect")
	}
	if err := n.RewireOutput(9, ids["n1"]); err == nil {
		t.Error("RewireOutput with bad index should fail")
	}
}

func TestAppendFanin(t *testing.T) {
	n, ids := buildSmall(t)
	// Widen the AND gate with a new input.
	extra := n.MustAddGate(GateInput, "extra")
	if err := n.AppendFanin(ids["n1"], extra); err != nil {
		t.Fatalf("AppendFanin: %v", err)
	}
	if got := len(n.Gate(ids["n1"]).Fanin); got != 3 {
		t.Errorf("fanin = %d, want 3", got)
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Widening a NOT must fail (fixed arity).
	q := ids["q"]
	_ = q
	notGate := n.MustAddGate(GateNot, "inv", extra)
	if err := n.AppendFanin(notGate, ids["a"]); err == nil {
		t.Error("NOT must not take a second pin")
	}
	// Unknown signals rejected.
	if err := n.AppendFanin(ids["n1"], SignalID(9999)); err == nil {
		t.Error("bad source must be rejected")
	}
	// Semantics: the widened AND now includes the new input.
	vals, err := n.Evaluate(map[SignalID]bool{
		ids["a"]: true, ids["b"]: false, ids["t0"]: true, ids["q"]: false, extra: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vals[ids["n1"]] {
		t.Error("AND with a 0 pin must output 0")
	}
}

func TestFanoutCountAfterRewire(t *testing.T) {
	n, ids := buildSmall(t)
	before := fanoutCount(n, ids["a"])
	// Rewire n1's pin 0 (was a) to b: a loses a consumer.
	if err := n.RewireFanin(ids["n1"], 0, ids["b"]); err != nil {
		t.Fatal(err)
	}
	if got := fanoutCount(n, ids["a"]); got != before-1 {
		t.Errorf("fanout(a) = %d, want %d", got, before-1)
	}
}

func TestAppendGates(t *testing.T) {
	n := New("bulk")
	a := n.MustAddGate(GateInput, "a")
	first, err := n.AppendGates([]Gate{
		{Type: GateBuf, Name: "b0", Fanin: []SignalID{a}},
		{Type: GateAnd, Name: "b1", Fanin: []SignalID{a, 1}},
	})
	if err != nil || first != 1 {
		t.Fatalf("AppendGates = %d, %v", first, err)
	}
	if id, ok := n.SignalByName("b1"); !ok || id != 2 || n.Graph().NumGates() != 3 {
		t.Fatalf("b1 at %d (%v), graph of %d gates", id, ok, n.Graph().NumGates())
	}
	for _, bad := range [][]Gate{
		{{Type: GateBuf, Name: "c0", Fanin: []SignalID{a}}, {Type: GateBuf, Name: "a", Fanin: []SignalID{a}}},
		{{Type: GateBuf, Name: "c0", Fanin: []SignalID{a}}, {Type: GateBuf, Name: "c0", Fanin: []SignalID{a}}},
		{{Type: GateBuf, Name: "c0", Fanin: []SignalID{4}}},
		{{Type: GateBuf, Name: "c0", Fanin: []SignalID{a, a}}},
		{{Type: GateBuf, Fanin: []SignalID{a}}},
	} {
		if _, err := n.AppendGates(bad); err == nil {
			t.Errorf("%v: accepted", bad)
		}
		if _, ok := n.SignalByName("c0"); ok || n.NumGates() != 3 {
			t.Fatalf("%v: a failed batch changed the netlist", bad)
		}
	}
}

func TestNumberedNames(t *testing.T) {
	got := NumberedNames("x", 4, map[string]bool{"x0": true, "x2": true, "y1": true})
	if want := []string{"x1", "x3", "x4", "x5"}; !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := NumberedNames("g", 3, nil); !slices.Equal(got, []string{"g0", "g1", "g2"}) {
		t.Errorf("got %v", got)
	}
}
