package wcmgraph

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// randomGraph builds a graph of n nodes (every third one a flip-flop) with
// random clean and overlap edges at the given density.
func randomGraph(rng *rand.Rand, n int, density float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		node := Node{}
		if i%3 == 2 {
			node.HasFF = true
			node.FF = int32(i)
		}
		if _, err := g.AddNode(node); err != nil {
			panic(err)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() >= density {
				continue
			}
			if rng.Intn(4) == 0 {
				g.AddOverlapEdge(a, b)
			} else {
				g.AddEdge(a, b)
			}
		}
	}
	return g
}

// TestMinDegreePairMatchesScan drives randomized graphs through full
// partition runs, asserting at every single iteration that the
// degree-bucket index picks exactly the pair the linear-scan reference
// picks — same tier order, same lowest-id tie-breaking — while merges and
// edge deletions mutate the graph underneath.
func TestMinDegreePairMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 40+rng.Intn(80), 0.02+rng.Float64()*0.15)
		for step := 0; ; step++ {
			i1, i2, iok := g.MinDegreePair()
			s1, s2, sok := g.minDegreePairScan()
			if iok != sok || i1 != s1 || i2 != s2 {
				t.Fatalf("seed %d step %d: index picked (%d,%d,%v), scan picked (%d,%d,%v)",
					seed, step, i1, i2, iok, s1, s2, sok)
			}
			if !iok {
				break
			}
			// Alternate merge and delete like the partitioner does when
			// mergeFits flips, so both mutation paths exercise the index.
			if rng.Intn(3) != 0 {
				if _, err := g.Merge(i1, i2); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			} else {
				g.DeleteEdge(i1, i2)
			}
		}
	}
}

// TestPickCacheLongDeleteRuns drives MinDegreePair through long runs of
// consecutive DeleteEdge calls between rare merges on dense graphs — the
// failed-merge runs Partition batches, over which the per-tier noPair memo
// stays valid — pinning every pick against the scan oracle.
func TestPickCacheLongDeleteRuns(t *testing.T) {
	for seed := int64(300); seed < 310; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 120, 0.6) // dense: runs of hundreds of deletes
		for step := 0; ; step++ {
			i1, i2, iok := g.MinDegreePair()
			s1, s2, sok := g.minDegreePairScan()
			if iok != sok || i1 != s1 || i2 != s2 {
				t.Fatalf("seed %d step %d: cached (%d,%d,%v) != scan (%d,%d,%v)",
					seed, step, i1, i2, iok, s1, s2, sok)
			}
			if !iok {
				break
			}
			if rng.Intn(40) == 0 {
				if _, err := g.Merge(i1, i2); err != nil {
					t.Fatal(err)
				}
			} else {
				g.DeleteEdge(i1, i2)
			}
		}
	}
}

// TestMinDegreePlaneMatchesScanPerTier pins each of the four tiers
// individually, including the tiers the combined MinDegreePair would have
// short-circuited past.
func TestMinDegreePlaneMatchesScanPerTier(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 64, 0.08)
		for step := 0; step < 200; step++ {
			for _, tier := range []struct{ clean, noFF bool }{
				{true, true}, {true, false}, {false, true}, {false, false},
			} {
				i1, i2, iok := g.minDegreePlane(tier.clean, tier.noFF)
				s1, s2, sok := g.minDegreePlaneScan(tier.clean, tier.noFF)
				if iok != sok || i1 != s1 || i2 != s2 {
					t.Fatalf("seed %d step %d tier %+v: index (%d,%d,%v) != scan (%d,%d,%v)",
						seed, step, tier, i1, i2, iok, s1, s2, sok)
				}
			}
			n1, n2, ok := g.MinDegreePair()
			if !ok {
				break
			}
			switch rng.Intn(4) {
			case 0:
				g.DeleteEdge(n1, n2)
			case 1:
				// Re-adding a deleted edge exercises index insertions on
				// nodes whose degree dropped to zero and came back.
				a, b := rng.Intn(64), rng.Intn(64)
				if a != b && g.nodes[a].alive && g.nodes[b].alive {
					g.AddEdge(a, b)
				}
			default:
				if _, err := g.Merge(n1, n2); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestDegreeIndexConsistency cross-checks the index contents against the
// node counters after every step of a random mutation sequence, for as
// long as edges remain: every alive node with positive degree must be
// found, with its exact degree, in its plane's view of its kind, and in no
// other view. Until the all-plane views are first read they must be empty;
// the run reads them once the clean plane runs out of edges, so both
// states are checked.
func TestDegreeIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 100, 0.05)
	for step := 0; g.NumEdges() > 0; step++ {
		checkDegreeIndex(t, g, step)
		n1, n2, ok := g.MinDegreePair()
		if !ok {
			t.Fatalf("step %d: no pair with %d edges left", step, g.NumEdges())
		}
		if step%2 == 0 {
			g.DeleteEdge(n1, n2)
		} else if _, err := g.Merge(n1, n2); err != nil {
			t.Fatal(err)
		}
	}
	if !g.allIndexed {
		t.Fatal("the run never read the all-plane views")
	}
	checkDegreeIndex(t, g, -1)
}

func checkDegreeIndex(t *testing.T, g *Graph, step int) {
	t.Helper()
	for plane, degOf := range map[int]func(*Node) int32{
		planeAll:   func(n *Node) int32 { return n.deg },
		planeClean: func(n *Node) int32 { return n.cleanDeg },
	} {
		for kind := range g.degIdx[plane] {
			idx := &g.degIdx[plane][kind]
			want := 0
			for i := range g.nodes {
				n := &g.nodes[i]
				member := n.alive && degOf(n) > 0 && kindOf(n.HasFF) == kind &&
					(plane == planeClean || g.allIndexed)
				if member {
					want++
				}
				for d, b := range idx.buckets {
					in := b != nil && b[i>>6]&(1<<(uint(i)&63)) != 0
					if in != (member && int32(d) == degOf(n)) {
						t.Fatalf("step %d plane %d kind %d node %d: in bucket %d = %v, member %v with degree %d",
							step, plane, kind, i, d, in, member, degOf(n))
					}
				}
			}
			if idx.size != want {
				t.Fatalf("step %d plane %d kind %d: size %d, want %d", step, plane, kind, idx.size, want)
			}
			for d, c := range idx.counts {
				got := 0
				if b := idx.buckets[d]; b != nil {
					for _, w := range b {
						got += bits.OnesCount64(w)
					}
				}
				if int(c) != got {
					t.Fatalf("step %d plane %d kind %d: count %d at degree %d, bucket holds %d", step, plane, kind, c, d, got)
				}
			}
		}
	}
}

// TestBulkLoadMatchesAddEdge pins the bulk constructor the WCM edge sweep
// uses (BulkRows + FinishBulkEdges) to the edge-by-edge one: loading the
// same edge set must give the same rows, degrees and edge counts, and the
// two graphs must then pick the same MinDegreePair sequence — checked
// against the scan oracle too — through a full partition of merges and
// edge deletions.
func TestBulkLoadMatchesAddEdge(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(120)
		ref := randomGraph(rng, n, 0.02+rng.Float64()*0.3)
		bulk := New(n)
		for i := 0; i < n; i++ {
			if _, err := bulk.AddNode(*ref.Node(i)); err != nil {
				t.Fatal(err)
			}
		}
		for a := 0; a < n; a++ {
			adj, clean := bulk.BulkRows(a)
			copy(adj, ref.adj[a])
			copy(clean, ref.clean[a])
		}
		edges, cleanEdges := bulk.FinishBulkEdges()
		refClean := 0
		for i := 0; i < n; i++ {
			ra, ba := ref.Node(i), bulk.Node(i)
			if ra.deg != ba.deg || ra.cleanDeg != ba.cleanDeg {
				t.Fatalf("seed %d node %d: bulk degrees (%d,%d), edge-by-edge (%d,%d)",
					seed, i, ba.deg, ba.cleanDeg, ra.deg, ra.cleanDeg)
			}
			refClean += int(ra.cleanDeg)
			for w := range ref.adj[i] {
				if ref.adj[i][w] != bulk.adj[i][w] || ref.clean[i][w] != bulk.clean[i][w] {
					t.Fatalf("seed %d node %d: rows differ at word %d", seed, i, w)
				}
			}
		}
		if edges != ref.NumEdges() || bulk.NumEdges() != ref.NumEdges() || cleanEdges != refClean/2 {
			t.Fatalf("seed %d: bulk edges (%d, clean %d), edge-by-edge (%d, clean %d)",
				seed, edges, cleanEdges, ref.NumEdges(), refClean/2)
		}
		for step := 0; ; step++ {
			r1, r2, rok := ref.MinDegreePair()
			b1, b2, bok := bulk.MinDegreePair()
			s1, s2, sok := bulk.minDegreePairScan()
			if rok != bok || r1 != b1 || r2 != b2 || bok != sok || b1 != s1 || b2 != s2 {
				t.Fatalf("seed %d step %d: bulk (%d,%d,%v), edge-by-edge (%d,%d,%v), scan (%d,%d,%v)",
					seed, step, b1, b2, bok, r1, r2, rok, s1, s2, sok)
			}
			if !rok {
				break
			}
			if rng.Intn(3) != 0 {
				if _, err := ref.Merge(r1, r2); err != nil {
					t.Fatal(err)
				}
				if _, err := bulk.Merge(b1, b2); err != nil {
					t.Fatal(err)
				}
			} else {
				ref.DeleteEdge(r1, r2)
				bulk.DeleteEdge(b1, b2)
			}
		}
	}
}

// partitionGraph builds a dense random graph for the partition
// differential: 40–100 nodes at 50–80% density, every third node a
// flip-flop, a quarter of the edges overlap quality, and mixed loads
// against the one returned bound, so merges stop fitting partway through a
// run. Every node holds one distinct member, which mergeLog relies on.
func partitionGraph(seed int64) (g *Graph, bound float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(60)
	density := 0.5 + rng.Float64()*0.3
	bound = 2 + rng.Float64()*6
	g = New(n)
	for i := 0; i < n; i++ {
		node := Node{Members: []int32{int32(i)}, Load: 0.3 + rng.Float64()*1.5}
		if rng.Intn(3) == 0 {
			node.HasFF = true
			node.FF = int32(i)
		}
		if _, err := g.AddNode(node); err != nil {
			panic(err)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() >= density {
				continue
			}
			if rng.Intn(4) == 0 {
				g.AddOverlapEdge(a, b)
			} else {
				g.AddEdge(a, b)
			}
		}
	}
	return g, bound
}

// mergeLog recovers the (n1, n2) sequence of a partition's merges from the
// products' member lists: node n0+j is the j-th merge, and its members are
// n1's followed by n2's. Every original node must hold one distinct member.
func mergeLog(g *Graph, n0 int) [][2]int {
	owner := map[int32]int{} // first member -> live node holding it
	for id := 0; id < n0; id++ {
		owner[g.nodes[id].Members[0]] = id
	}
	var log [][2]int
	for id := n0; id < len(g.nodes); id++ {
		m := g.nodes[id].Members
		a := owner[m[0]]
		second := m[len(g.nodes[a].Members)]
		log = append(log, [2]int{a, owner[second]})
		delete(owner, second)
		owner[m[0]] = id
	}
	return log
}

// TestPartitionMatchesScan runs the batched Partition against PartitionScan,
// Algorithm 2 one pick at a time over the scan reference, with the same
// fits. Both must make the same merges in the same order, delete as many
// edges and leave the same cliques.
func TestPartitionMatchesScan(t *testing.T) {
	for seed := int64(400); seed < 440; seed++ {
		got, bound := partitionGraph(seed)
		want, _ := partitionGraph(seed)
		fits := func(a, b *Node) bool { return a.Load+b.Load < bound }
		n0 := len(got.nodes)
		gm, gd, err := got.Partition(fits)
		if err != nil {
			t.Fatal(err)
		}
		wm, wd, err := want.PartitionScan(fits)
		if err != nil {
			t.Fatal(err)
		}
		if gm != wm || gd != wd {
			t.Fatalf("seed %d: Partition made %d merges and %d deletes, the scan loop %d and %d", seed, gm, gd, wm, wd)
		}
		if gl, wl := mergeLog(got, n0), mergeLog(want, n0); !reflect.DeepEqual(gl, wl) {
			t.Fatalf("seed %d: merge sequences differ:\n got %v\nwant %v", seed, gl, wl)
		}
		if !reflect.DeepEqual(got.Cliques(), want.Cliques()) || got.NumEdges() != 0 {
			t.Fatalf("seed %d: cliques %v, want %v (%d edges left)", seed, got.Cliques(), want.Cliques(), got.NumEdges())
		}
		checkConsistency(t, got)
	}
}
