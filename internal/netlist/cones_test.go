package netlist

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	for _, id := range []SignalID{0, 1, 63, 64, 127, 129} {
		b.Set(id)
	}
	if b.Count() != 6 {
		t.Errorf("Count = %d, want 6", b.Count())
	}
	if !b.Has(64) || b.Has(65) {
		t.Error("membership wrong around word boundary")
	}
	members := b.Members()
	want := []SignalID{0, 1, 63, 64, 127, 129}
	if len(members) != len(want) {
		t.Fatalf("Members = %v", members)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Errorf("Members[%d] = %d, want %d", i, members[i], want[i])
		}
	}
}

func TestBitSetIntersect(t *testing.T) {
	a, b := NewBitSet(200), NewBitSet(200)
	a.Set(5)
	a.Set(100)
	b.Set(100)
	b.Set(150)
	if !a.Intersects(b) {
		t.Error("should intersect at 100")
	}
	if got := a.IntersectCount(b); got != 1 {
		t.Errorf("IntersectCount = %d, want 1", got)
	}
	c := NewBitSet(200)
	c.Set(6)
	if a.Intersects(c) {
		t.Error("should not intersect")
	}
}

func TestBitSetQuickProperties(t *testing.T) {
	// Property: Count equals the number of distinct set IDs, and Members
	// returns exactly the set elements in ascending order.
	f := func(raw []uint16) bool {
		const cap = 1 << 16
		b := NewBitSet(cap)
		distinct := map[SignalID]struct{}{}
		for _, r := range raw {
			id := SignalID(r)
			b.Set(id)
			distinct[id] = struct{}{}
		}
		if b.Count() != len(distinct) {
			return false
		}
		prev := SignalID(-1)
		for _, m := range b.Members() {
			if _, ok := distinct[m]; !ok || m <= prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFaninCone(t *testing.T) {
	// a, b -> n1=AND(a,b); c -> n2=OR(n1,c); q=DFF(n2); n3=NOT(q)
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
n1 = AND(a, b)
n2 = OR(n1, c)
q = DFF(n2)
n3 = NOT(q)
OUTPUT(n3)
`
	n, err := ParseString("cone", src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	id := func(s string) SignalID {
		i, ok := n.SignalByName(s)
		if !ok {
			t.Fatalf("no signal %s", s)
		}
		return i
	}
	cone := n.FaninCone(id("n2"))
	for _, s := range []string{"a", "b", "c", "n1", "n2"} {
		if !cone.Has(id(s)) {
			t.Errorf("fanin cone of n2 missing %s", s)
		}
	}
	for _, s := range []string{"q", "n3"} {
		if cone.Has(id(s)) {
			t.Errorf("fanin cone of n2 wrongly contains %s", s)
		}
	}
	// Cone of n3 stops at the flip-flop output q; it must not cross into
	// n2's logic.
	cone3 := n.FaninCone(id("n3"))
	if !cone3.Has(id("q")) || cone3.Has(id("n2")) || cone3.Has(id("a")) {
		t.Errorf("fanin cone of n3 should stop at DFF q: %v", names(n, cone3))
	}
}

func TestFanoutCone(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
n1 = AND(a, b)
n2 = OR(n1, b)
q = DFF(n2)
n3 = NOT(q)
OUTPUT(n3)
`
	n, err := ParseString("cone", src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	id := func(s string) SignalID {
		i, ok := n.SignalByName(s)
		if !ok {
			t.Fatalf("no signal %s", s)
		}
		return i
	}
	cone := n.FanoutCone(id("a"))
	// a -> n1 -> n2 -> q (stop). n3 is past the FF.
	for _, s := range []string{"a", "n1", "n2", "q"} {
		if !cone.Has(id(s)) {
			t.Errorf("fanout cone of a missing %s", s)
		}
	}
	if cone.Has(id("n3")) {
		t.Error("fanout cone of a crossed the flip-flop boundary")
	}
}

func TestConeSetOverlap(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
n1 = AND(a, b)
n2 = OR(b, c)
n3 = NOT(a)
OUTPUT(n1)
OUTPUT(n2)
OUTPUT(n3)
`
	n, err := ParseString("ov", src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	id := func(s string) SignalID { i, _ := n.SignalByName(s); return i }
	cs := NewConeSet(n, []SignalID{id("n1"), id("n2"), id("n3")})
	if !cs.Fanin(id("n1")).Intersects(cs.Fanin(id("n2"))) {
		t.Error("n1 and n2 share input b: fan-in cones must overlap")
	}
	if cs.Fanin(id("n2")).Intersects(cs.Fanin(id("n3"))) {
		t.Error("n2 and n3 share nothing: fan-in cones must not overlap")
	}
	if !cs.Fanout(id("a")).Intersects(cs.Fanout(id("b"))) {
		t.Error("a and b both reach n1: fan-out cones must overlap")
	}
	if cs.Fanout(id("n1")).Intersects(cs.Fanout(id("n2"))) {
		t.Error("n1 and n2 have disjoint fanout")
	}
}

// TestConesRandomCircuit cross-checks cone computation against brute-force
// reachability on randomly generated DAGs.
func TestConesRandomCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := randomDAG(rng, 40)
		if err := n.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for g := 0; g < n.NumGates(); g += 7 {
			id := SignalID(g)
			got := n.FaninCone(id)
			want := bruteFanin(n, id)
			if got.Count() != len(want) {
				t.Fatalf("trial %d signal %d: fanin cone %d members, brute force %d",
					trial, g, got.Count(), len(want))
			}
			for m := range want {
				if !got.Has(m) {
					t.Fatalf("trial %d signal %d: missing %d", trial, g, m)
				}
			}
		}
	}
}

func bruteFanin(n *Netlist, id SignalID) map[SignalID]struct{} {
	seen := map[SignalID]struct{}{id: {}}
	var walk func(s SignalID, root bool)
	walk = func(s SignalID, root bool) {
		g := n.Gate(s)
		if !root && (g.Type.IsSource() || g.Type == GateDFF) {
			return
		}
		for _, f := range g.Fanin {
			if _, ok := seen[f]; !ok {
				seen[f] = struct{}{}
				walk(f, false)
			}
		}
	}
	walk(id, true)
	return seen
}

// randomDAG builds a random combinational circuit with some DFFs mixed in.
func randomDAG(rng *rand.Rand, nGates int) *Netlist {
	n := New("rand")
	for i := 0; i < 5; i++ {
		n.MustAddGate(GateInput, "pi"+itoa(i))
	}
	types := []GateType{GateAnd, GateOr, GateNand, GateNor, GateXor, GateNot, GateBuf, GateDFF}
	for i := 0; i < nGates; i++ {
		typ := types[rng.Intn(len(types))]
		nIn := typ.MinFanin()
		if typ.MaxFanin() < 0 && rng.Intn(2) == 1 {
			nIn = 3
		}
		fanin := make([]SignalID, nIn)
		for j := range fanin {
			fanin[j] = SignalID(rng.Intn(n.NumGates()))
		}
		n.MustAddGate(typ, "g"+itoa(i), fanin...)
	}
	last := SignalID(n.NumGates() - 1)
	if err := n.AddOutput("out", last, PortPO); err != nil {
		panic(err)
	}
	return n
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func names(n *Netlist, b *BitSet) []string {
	var out []string
	for _, m := range b.Members() {
		out = append(out, n.NameOf(m))
	}
	return out
}

// TestSparseSetMatchesFullWidth pins the dense-row kernel to the
// full-width masked scans it replaces in the WCM edge sweep: for random
// sets a, b and mask excl, (a &^ excl) ∩ (b &^ excl) taken by loading one
// sparse form into a Row and counting the other against it must agree
// with IntersectsExcluding / IntersectCountExcluding on the dense sets.
// Sizes cover an empty capacity, a single word, a partial last word and
// multi-word sets; densities cover empty sets, identical sets and a fully
// masked set. One row per capacity serves every check, as one row serves
// a sweep worker's rows.
func TestSparseSetMatchesFullWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func(n int, density float64) *BitSet {
		b := NewBitSet(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				b.Set(SignalID(i))
			}
		}
		return b
	}
	var row *Row
	count := func(loaded, probe SparseSet) int {
		row.Load(loaded)
		c := row.IntersectCount(probe)
		row.Clear()
		return c
	}
	check := func(name string, a, b, excl *BitSet) {
		t.Helper()
		sa, sb := a.SparseAndNot(excl), b.SparseAndNot(excl)
		nz := 0
		for i, w := range a.words {
			if w&^excl.words[i] != 0 {
				nz++
			}
		}
		if len(sa.words) != nz {
			t.Fatalf("%s: sparse form holds %d words, dense has %d nonzero", name, len(sa.words), nz)
		}
		if got, want := count(sa, sb) > 0, a.IntersectsExcluding(b, excl); got != want {
			t.Fatalf("%s: intersects = %v, full-width %v", name, got, want)
		}
		if got, want := count(sa, sb), a.IntersectCountExcluding(b, excl); got != want {
			t.Fatalf("%s: IntersectCount = %d, full-width %d", name, got, want)
		}
		if got, want := count(sb, sa), b.IntersectCountExcluding(a, excl); got != want {
			t.Fatalf("%s: IntersectCount (swapped) = %d, full-width %d", name, got, want)
		}
	}
	for _, n := range []int{0, 1, 64, 130, 1000} {
		row = NewRow(n)
		empty := NewBitSet(n)
		full := random(n, 1)
		check("empty", empty, empty, empty)
		check("empty-vs-full", empty, full, empty)
		check("fully-masked", full, full, full)
		for trial := 0; trial < 50; trial++ {
			da, db := rng.Float64()*0.05, rng.Float64()*0.05
			a, b := random(n, da), random(n, db)
			excl := random(n, rng.Float64()*0.5)
			check("random", a, b, excl)
			check("identical", a, a.Clone(), excl)
			check("unmasked", a, b, empty)
		}
	}
}

// TestRowReuseLeavesNoStaleBits reuses one Row across loads of different
// sets, as a sweep worker does across its rows. Stale bits are the
// kernel's one failure mode of its own: a word a previous set wrote and
// Clear missed would count as shared with every later probe. After each
// Clear the row must be all zero, and while a set is loaded the row must
// hold exactly that set's words.
func TestRowReuseLeavesNoStaleBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 700
	none := NewBitSet(n)
	row := NewRow(n)
	for trial := 0; trial < 200; trial++ {
		b := NewBitSet(n)
		density := []float64{0, 0.002, 0.02, 0.5, 1}[trial%5]
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				b.Set(SignalID(i))
			}
		}
		s := b.SparseAndNot(none)
		row.Load(s)
		for i, w := range row.words {
			if w != b.words[i] {
				t.Fatalf("trial %d: loaded row word %d = %#x, set holds %#x", trial, i, w, b.words[i])
			}
		}
		if got, want := row.IntersectCount(s), b.Count(); got != want {
			t.Fatalf("trial %d: self count %d, want %d", trial, got, want)
		}
		row.Clear()
		for i, w := range row.words {
			if w != 0 {
				t.Fatalf("trial %d: word %d = %#x after Clear", trial, i, w)
			}
		}
		if got := row.IntersectCount(s); got != 0 {
			t.Fatalf("trial %d: cleared row still shares %d members", trial, got)
		}
	}
}

// TestConeWalkerMatchesCones walks every signal's fan-in and fan-out cone
// through one reused walker, alternating directions, and requires each
// walk to equal the freshly allocated FaninCone/FanoutCone: a reused set
// must carry no bit of an earlier walk.
func TestConeWalkerMatchesCones(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := randomDAG(rng, 60)
		w := n.NewConeWalker()
		for g := 0; g < n.NumGates(); g++ {
			id := SignalID(g)
			if got, want := w.Fanin(id).Members(), n.FaninCone(id).Members(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d signal %d: walker fan-in %v, FaninCone %v", trial, g, got, want)
			}
			if got, want := w.Fanout(id).Members(), n.FanoutCone(id).Members(); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d signal %d: walker fan-out %v, FanoutCone %v", trial, g, got, want)
			}
		}
	}
}
