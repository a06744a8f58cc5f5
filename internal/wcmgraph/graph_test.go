package wcmgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodesAndEdges(t *testing.T) {
	g := New(4)
	ids := make([]int, 4)
	for i := range ids {
		id, err := g.AddNode(Node{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	g.AddEdge(ids[0], ids[1])
	g.AddEdge(ids[1], ids[2])
	g.AddEdge(ids[0], ids[1]) // idempotent
	g.AddEdge(ids[0], ids[0]) // self-loop rejected
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(ids[0], ids[1]) || g.HasEdge(ids[0], ids[2]) {
		t.Error("adjacency wrong")
	}
	if g.Node(ids[1]).Degree() != 2 {
		t.Errorf("deg(1) = %d, want 2", g.Node(ids[1]).Degree())
	}
	g.DeleteEdge(ids[0], ids[1])
	if g.NumEdges() != 1 || g.Node(ids[0]).Degree() != 0 {
		t.Error("DeleteEdge bookkeeping wrong")
	}
	g.DeleteEdge(ids[0], ids[1]) // idempotent
	if g.NumEdges() != 1 {
		t.Error("double delete changed count")
	}
}

func TestMinDegreePair(t *testing.T) {
	g := New(4)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	c, _ := g.AddNode(Node{})
	d, _ := g.AddNode(Node{})
	// a-b, b-c, c-d, b-d: degrees a=1 b=3 c=2 d=2.
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, d)
	g.AddEdge(b, d)
	n1, n2, ok := g.MinDegreePair()
	if !ok {
		t.Fatal("expected a pair")
	}
	if n1 != a || n2 != b {
		t.Errorf("pair = (%d,%d), want (a=%d, b=%d)", n1, n2, a, b)
	}
}

func TestMinDegreePairEmpty(t *testing.T) {
	g := New(2)
	g.AddNode(Node{})
	g.AddNode(Node{})
	if _, _, ok := g.MinDegreePair(); ok {
		t.Error("no edges: no pair")
	}
}

func TestMergeKeepsCliqueInvariant(t *testing.T) {
	// Triangle a-b-c plus pendant a-d. Merging a,b must keep only c (the
	// common neighbor); d drops away.
	g := New(4)
	a, _ := g.AddNode(Node{HasFF: true, FF: 7, Load: 1, X: 0, Y: 0})
	b, _ := g.AddNode(Node{Members: []int32{5}, Load: 2.5, X: 2, Y: 2})
	c, _ := g.AddNode(Node{Members: []int32{6}})
	d, _ := g.AddNode(Node{Members: []int32{9}})
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(a, c)
	g.AddEdge(a, d)
	m, err := g.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mn := g.Node(m)
	if !mn.HasFF || mn.FF != 7 {
		t.Error("merged node must inherit the flip-flop")
	}
	if mn.Load != 3.5 {
		t.Errorf("Load = %v, want 1+2.5", mn.Load)
	}
	if len(mn.Members) != 1 || mn.Members[0] != 5 {
		t.Errorf("Members = %v, want [5]", mn.Members)
	}
	if g.Node(a).Alive() || g.Node(b).Alive() {
		t.Error("merged-away nodes must die")
	}
	if !g.HasEdge(m, c) {
		t.Error("common neighbor c must stay adjacent")
	}
	if g.HasEdge(m, d) {
		t.Error("non-common neighbor d must not be adjacent")
	}
	if g.Node(d).Degree() != 0 {
		t.Errorf("deg(d) = %d, want 0", g.Node(d).Degree())
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1 (m-c)", g.NumEdges())
	}
}

func TestMergeNonAdjacentFails(t *testing.T) {
	g := New(2)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	if _, err := g.Merge(a, b); err == nil {
		t.Error("merging non-adjacent nodes must fail")
	}
}

func TestCapacityBound(t *testing.T) {
	g := New(1)
	if _, err := g.AddNode(Node{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(Node{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(Node{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(Node{}); err == nil {
		t.Error("capacity 2n+1 = 3 must reject the 4th node")
	}
}

// TestRandomMergeInvariants drives random merges and checks the degree and
// edge-count bookkeeping stays consistent with a brute-force recount.
func TestRandomMergeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 30
		g := New(n)
		ids := make([]int, n)
		for i := range ids {
			ids[i], _ = g.AddNode(Node{})
		}
		for i := 0; i < n*3; i++ {
			g.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)])
		}
		for step := 0; step < 20; step++ {
			n1, n2, ok := g.MinDegreePair()
			if !ok {
				break
			}
			if rng.Intn(4) == 0 {
				g.DeleteEdge(n1, n2)
			} else {
				if _, err := g.Merge(n1, n2); err != nil {
					t.Fatal(err)
				}
			}
			checkConsistency(t, g)
		}
	}
}

func checkConsistency(t *testing.T, g *Graph) {
	t.Helper()
	edges := 0
	for i := range g.nodes {
		if !g.nodes[i].alive {
			if g.nodes[i].deg != 0 {
				t.Fatalf("dead node %d has degree %d", i, g.nodes[i].deg)
			}
			continue
		}
		deg := 0
		g.Neighbors(i, func(nb int) {
			if !g.nodes[nb].alive {
				t.Fatalf("node %d adjacent to dead node %d", i, nb)
			}
			if !g.HasEdge(nb, i) {
				t.Fatalf("asymmetric edge %d-%d", i, nb)
			}
			deg++
		})
		if deg != int(g.nodes[i].deg) {
			t.Fatalf("node %d degree counter %d, actual %d", i, g.nodes[i].deg, deg)
		}
		edges += deg
	}
	if edges/2 != g.edges {
		t.Fatalf("edge counter %d, actual %d", g.edges, edges/2)
	}
}

func TestOverlapEdgesConsumedLast(t *testing.T) {
	// a-b clean; a-c overlap. MinDegreePair must offer the clean pair
	// first even though c has lower degree.
	g := New(3)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	c, _ := g.AddNode(Node{})
	g.AddEdge(a, b)
	g.AddOverlapEdge(a, c)
	n1, n2, ok := g.MinDegreePair()
	if !ok {
		t.Fatal("expected a pair")
	}
	pair := map[int]bool{n1: true, n2: true}
	if !pair[a] || !pair[b] {
		t.Errorf("first pair must be the clean edge (a,b), got (%d,%d)", n1, n2)
	}
	// After the clean edge is gone, the overlap edge is offered.
	m, err := g.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	n1, n2, ok = g.MinDegreePair()
	if ok {
		// c lost its only edge when a died (a-c was not common to a and
		// b), so there may be nothing left; if there is, it must
		// involve c.
		if n1 != c && n2 != c {
			t.Errorf("remaining pair (%d,%d) should involve c", n1, n2)
		}
	}
}

func TestMergePreservesOverlapQuality(t *testing.T) {
	// Clique (a,b) merged; a-x clean, b-x overlap => merged-x must be
	// overlap quality (NOT clean), since one member's relation is weak.
	g := New(3)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	x, _ := g.AddNode(Node{})
	g.AddEdge(a, b)
	g.AddEdge(a, x)
	g.AddOverlapEdge(b, x)
	m, err := g.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(m, x) {
		t.Fatal("common neighbor lost")
	}
	if g.Node(m).cleanDeg != 0 {
		t.Errorf("merged-x edge must be overlap quality, cleanDeg=%d", g.Node(m).cleanDeg)
	}
	checkConsistency(t, g)
}

func TestFFLastSelection(t *testing.T) {
	// TSV-TSV edges must be merged before FF-TSV edges.
	g := New(3)
	ff, _ := g.AddNode(Node{HasFF: true, FF: 1})
	t1, _ := g.AddNode(Node{Members: []int32{0}})
	t2, _ := g.AddNode(Node{Members: []int32{1}})
	g.AddEdge(ff, t1)
	g.AddEdge(t1, t2)
	n1, n2, ok := g.MinDegreePair()
	if !ok {
		t.Fatal("expected a pair")
	}
	if n1 == ff || n2 == ff {
		t.Errorf("pure TSV pair must be selected before the flip-flop, got (%d,%d)", n1, n2)
	}
}

func TestBBoxUnion(t *testing.T) {
	g := New(2)
	a, _ := g.AddNode(Node{X: 0, Y: 0})
	b, _ := g.AddNode(Node{X: 30, Y: 40})
	if d := BBoxUnionDiameter(g.Node(a), g.Node(b)); d != 70 {
		t.Errorf("diameter = %v, want 70", d)
	}
	g.AddEdge(a, b)
	m, err := g.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mn := g.Node(m)
	if mn.X != 0 || mn.Y != 0 || mn.X2 != 30 || mn.Y2 != 40 {
		t.Errorf("merged bbox = (%v,%v)-(%v,%v)", mn.X, mn.Y, mn.X2, mn.Y2)
	}
}

// TestQuickMergeMonotonics: random merge sequences preserve the structural
// invariants: member counts are conserved into the merged clique, its load
// is the sum of its parents' loads, bounding boxes only grow.
func TestQuickMergeMonotonics(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(nRaw%24)
		g := New(n)
		totalMembers := 0
		for i := 0; i < n; i++ {
			m := []int32{int32(i)}
			totalMembers++
			x, y := rng.Float64()*100, rng.Float64()*100
			if _, err := g.AddNode(Node{
				Members: m, Load: rng.Float64() * 10,
				X: x, Y: y, X2: x, Y2: y,
			}); err != nil {
				return false
			}
		}
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		for {
			a, b, ok := g.MinDegreePair()
			if !ok {
				break
			}
			na, nb := g.Node(a), g.Node(b)
			wantMembers := len(na.Members) + len(nb.Members)
			wantLoad := na.Load + nb.Load
			diam := BBoxUnionDiameter(na, nb)
			m, err := g.Merge(a, b)
			if err != nil {
				return false
			}
			mn := g.Node(m)
			if len(mn.Members) != wantMembers || mn.Load != wantLoad {
				return false
			}
			if (mn.X2-mn.X)+(mn.Y2-mn.Y) != diam {
				return false
			}
		}
		// All members conserved across the final cliques.
		got := 0
		for _, id := range g.Cliques() {
			got += len(g.Node(id).Members)
		}
		return got == totalMembers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
