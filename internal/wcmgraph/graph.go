// Package wcmgraph implements the sharing graph of the wrapper-cell
// minimization problem (paper §III): nodes are scan flip-flops and TSVs, an
// edge means "these two can share one wrapper cell", and the heuristic
// clique partitioner (paper Algorithm 2) repeatedly merges the
// minimum-degree adjacent pair.
//
// Adjacency is stored as one bitset per node. The WCM graphs of the
// largest ITC'99 dies hold a few thousand nodes, so a bitset row is a few
// hundred bytes; intersections (the common-neighbor computation every merge
// needs) are word-parallel ANDs.
package wcmgraph

import (
	"fmt"
	"math"
	"math/bits"
)

// Node is one graph node: a scan flip-flop, a TSV, or a merged clique.
type Node struct {
	// HasFF reports whether the clique contains a scan flip-flop.
	HasFF bool
	// FF is the flip-flop signal when HasFF (exported for the caller;
	// the graph itself does not interpret it).
	FF int32
	// Members are caller-defined TSV indices merged into this clique.
	Members  []int32
	cleanDeg int32
	// Load is the accumulated wire-aware sharing cost (capacitance on
	// the control side, delay on the observe side). Additive under
	// merge.
	Load float64
	// Budget is the bound on Load (cap_th headroom on the control side,
	// timing slack on the observe side). The minimum survives a merge.
	Budget float64
	// Load2 and Budget2 are a second, independent cost dimension: the
	// post-bond drive capacity a wrapper cell must supply (TSV pillar
	// plus pin capacitance per member, no wires). Leave Budget2 zero for
	// "unbounded" (it is normalized to +Inf on AddNode).
	Load2   float64
	Budget2 float64
	// X, Y / X2, Y2 are the clique's bounding box (µm): the area its
	// members span. Merges take the union. The box bounds how much wire
	// any member needs to reach a shared wrapper cell.
	X, Y   float64
	X2, Y2 float64

	alive bool
	deg   int32
}

// Alive reports whether the node still exists (not merged away).
func (n *Node) Alive() bool { return n.alive }

// Degree returns the current number of incident edges.
func (n *Node) Degree() int { return int(n.deg) }

// Graph is a mutable sharing graph. Edges carry a quality tag: clean
// edges (non-overlapping cones) and overlap edges (admitted under
// testability thresholds). The partitioner consumes clean edges first —
// overlap edges only expand the solution space once no clean option
// remains, so admitting them can never fragment the clean solution.
type Graph struct {
	nodes []Node
	adj   [][]uint64 // all edges
	clean [][]uint64 // subset: non-overlap edges
	words int        // words per adjacency row (fixed capacity)
	cap   int        // max node ids
	edges int
	// degIdx indexes live positive-degree nodes by degree so the
	// partitioner's min-degree selection is near-O(1) instead of a scan
	// over all nodes per merge. First axis: plane (all edges, clean
	// edges); second axis: whether flip-flop nodes are filtered out.
	// Every degree mutation flows through bumpDeg/bumpCleanDeg to keep
	// the four views consistent.
	degIdx [2][2]degIndex
	// pick caches min-degree-neighbor candidates between merges (see
	// pickCache); minDegreePlaneScan is the uncached reference the tests
	// pin every pick against.
	pick pickCache
}

// Index axes for degIdx.
const (
	planeAll   = 0
	planeClean = 1
)

// New creates a graph able to hold up to initialNodes original nodes plus
// all merge products (capacity 2×initialNodes).
func New(initialNodes int) *Graph {
	capIDs := 2*initialNodes + 1
	g := &Graph{
		words: (capIDs + 63) / 64,
		cap:   capIDs,
	}
	for p := range g.degIdx {
		for f := range g.degIdx[p] {
			g.degIdx[p][f].init(capIDs)
		}
	}
	return g
}

// degIndex is one degree-bucket view: a bitset of node ids per degree
// value, plus a lazily-advanced minimum-degree cursor. Membership is
// "alive with positive degree in this view's plane" (and non-FF for the
// filtered views). add/remove are O(1); min is O(row words) on the lowest
// non-empty bucket.
type degIndex struct {
	words   int
	counts  []int32
	buckets [][]uint64
	size    int
	minDeg  int32
}

func (x *degIndex) init(capIDs int) {
	x.words = (capIDs + 63) / 64
	x.minDeg = 1
}

func (x *degIndex) add(id int, d int32) {
	for int32(len(x.counts)) <= d {
		x.counts = append(x.counts, 0)
		x.buckets = append(x.buckets, nil)
	}
	b := x.buckets[d]
	if b == nil {
		b = make([]uint64, x.words)
		x.buckets[d] = b
	}
	b[id>>6] |= 1 << (uint(id) & 63)
	x.counts[d]++
	x.size++
	if d < x.minDeg {
		x.minDeg = d
	}
}

func (x *degIndex) remove(id int, d int32) {
	x.buckets[d][id>>6] &^= 1 << (uint(id) & 63)
	x.counts[d]--
	x.size--
}

// min returns the lowest-id member of the lowest non-empty bucket — the
// same node a lowest-id-tie-broken linear scan over ascending ids finds.
func (x *degIndex) min() (int, bool) {
	if x.size == 0 {
		return -1, false
	}
	d := x.minDeg
	for x.counts[d] == 0 {
		d++
	}
	x.minDeg = d // removals only raise the minimum; adds lower it eagerly
	for wi, w := range x.buckets[d] {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w), true
		}
	}
	panic("wcmgraph: degree index count drifted from bucket contents")
}

// pickCache memoizes the expensive half of minDegreePlane: the scan over
// n1's neighbors for the minimum-degree eligible one. Between two merges
// the partitioner only deletes the pair it was just handed, which changes
// no other node's degree — so the sorted candidate list collected on the
// last full scan keeps yielding exact successive argmins until a merge
// (or any other structural mutation) invalidates it. Tiers that found no
// eligible neighbor are remembered too (negN1): edge deletions can never
// create eligibility, so a failing (tier, n1) keeps failing until a merge
// or edge insertion. A repeated pick with no deletion in between returns
// the same pair. Every pop re-checks adjacency and degree, so a violated
// assumption degrades to a rescan, never a wrong pick.
type pickCache struct {
	valid  bool
	tier   uint8
	n1     int32
	lastN2 int32
	next   int
	cands  []pickCand
	negN1  [4]int32 // per tier: n1 known to have no eligible neighbor
	negSet [4]bool
}

type pickCand struct {
	deg int32
	id  int32
}

// pickCacheCap bounds the candidates kept per scan. Exhausting the list
// just forces the next pick back onto a full scan.
const pickCacheCap = 48

func (g *Graph) invalidatePicks() {
	g.pick.valid = false
	g.pick.negSet = [4]bool{}
}

func tierKey(cleanOnly, noFF bool) uint8 {
	k := uint8(0)
	if cleanOnly {
		k |= 2
	}
	if noFF {
		k |= 1
	}
	return k
}

// bumpDeg changes a node's all-plane degree by delta, keeping the degree
// indexes in sync. The node must be alive.
func (g *Graph) bumpDeg(id int, delta int32) {
	n := &g.nodes[id]
	old := n.deg
	n.deg = old + delta
	g.reindex(planeAll, id, old, n.deg, n.HasFF)
}

// bumpCleanDeg is bumpDeg for the clean plane.
func (g *Graph) bumpCleanDeg(id int, delta int32) {
	n := &g.nodes[id]
	old := n.cleanDeg
	n.cleanDeg = old + delta
	g.reindex(planeClean, id, old, n.cleanDeg, n.HasFF)
}

func (g *Graph) reindex(plane, id int, old, cur int32, hasFF bool) {
	if old == cur {
		return
	}
	if old > 0 {
		g.degIdx[plane][0].remove(id, old)
		if !hasFF {
			g.degIdx[plane][1].remove(id, old)
		}
	}
	if cur > 0 {
		g.degIdx[plane][0].add(id, cur)
		if !hasFF {
			g.degIdx[plane][1].add(id, cur)
		}
	}
}

// NumAlive returns the number of live nodes.
func (g *Graph) NumAlive() int {
	c := 0
	for i := range g.nodes {
		if g.nodes[i].alive {
			c++
		}
	}
	return c
}

// NumEdges returns the current number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// Node returns the node by id; the pointer is valid until the next AddNode
// or Merge.
func (g *Graph) Node(id int) *Node { return &g.nodes[id] }

// AddNode inserts a node and returns its id.
func (g *Graph) AddNode(n Node) (int, error) {
	if len(g.nodes) >= g.cap {
		return -1, fmt.Errorf("wcmgraph: node capacity %d exhausted", g.cap)
	}
	if n.Budget2 == 0 {
		n.Budget2 = math.Inf(1)
	}
	if n.X2 < n.X {
		n.X2 = n.X
	}
	if n.Y2 < n.Y {
		n.Y2 = n.Y
	}
	n.alive = true
	n.deg, n.cleanDeg = 0, 0 // a new node enters the degree indexes via bumpDeg
	g.invalidatePicks()
	id := len(g.nodes)
	g.nodes = append(g.nodes, n)
	g.adj = append(g.adj, make([]uint64, g.words))
	g.clean = append(g.clean, make([]uint64, g.words))
	return id, nil
}

// HasEdge reports whether a and b are adjacent.
func (g *Graph) HasEdge(a, b int) bool {
	return g.adj[a][b>>6]&(1<<(uint(b)&63)) != 0
}

// AddEdge connects a and b with a clean edge (idempotent; self-loops
// rejected).
func (g *Graph) AddEdge(a, b int) { g.addEdge(a, b, false) }

// AddOverlapEdge connects a and b with an overlap-quality edge.
func (g *Graph) AddOverlapEdge(a, b int) { g.addEdge(a, b, true) }

func (g *Graph) addEdge(a, b int, overlap bool) {
	if a == b || g.HasEdge(a, b) {
		return
	}
	g.invalidatePicks()
	g.adj[a][b>>6] |= 1 << (uint(b) & 63)
	g.adj[b][a>>6] |= 1 << (uint(a) & 63)
	g.bumpDeg(a, 1)
	g.bumpDeg(b, 1)
	g.edges++
	if !overlap {
		g.clean[a][b>>6] |= 1 << (uint(b) & 63)
		g.clean[b][a>>6] |= 1 << (uint(a) & 63)
		g.bumpCleanDeg(a, 1)
		g.bumpCleanDeg(b, 1)
	}
}

// BulkRows exposes a node's adjacency and clean-plane rows for direct
// bulk loading: a caller that already knows the whole edge set (the
// session's verdict matrix) writes neighbor bits straight into the rows —
// row-local, so rows load in parallel — and then calls FinishBulkEdges
// once. The caller owns symmetry (bit b in row a iff bit a in row b) and
// the clean-subset invariant (clean bits only where adjacency bits are).
func (g *Graph) BulkRows(id int) (adj, clean []uint64) {
	return g.adj[id], g.clean[id]
}

// FinishBulkEdges derives every degree counter, the edge count, and the
// degree-bucket indexes from rows loaded via BulkRows. It must run on a
// graph whose edges were only ever written through BulkRows (the indexes
// are assumed empty, as AddNode leaves them). The resulting graph state
// is identical to one built edge-by-edge with AddEdge/AddOverlapEdge:
// rows are order-independent sets and the bucket indexes hold the same
// membership either way.
func (g *Graph) FinishBulkEdges() (edges, cleanEdges int) {
	g.invalidatePicks()
	totDeg, totClean := 0, 0
	for id := range g.nodes {
		n := &g.nodes[id]
		d, cd := int32(0), int32(0)
		for _, w := range g.adj[id] {
			d += int32(bits.OnesCount64(w))
		}
		for _, w := range g.clean[id] {
			cd += int32(bits.OnesCount64(w))
		}
		n.deg, n.cleanDeg = d, cd
		g.reindex(planeAll, id, 0, d, n.HasFF)
		g.reindex(planeClean, id, 0, cd, n.HasFF)
		totDeg += int(d)
		totClean += int(cd)
	}
	g.edges = totDeg / 2
	return g.edges, totClean / 2
}

// DeleteEdge removes the edge between a and b if present.
func (g *Graph) DeleteEdge(a, b int) {
	if !g.HasEdge(a, b) {
		return
	}
	// Deleting exactly the pair the last pick returned keeps the
	// candidate list valid (no other node's degree moves); any other
	// deletion drops it. Negative entries survive every deletion: losing
	// edges can never give a failing (tier, n1) an eligible neighbor.
	if pc := &g.pick; pc.valid &&
		!(int32(a) == pc.n1 && int32(b) == pc.lastN2) &&
		!(int32(b) == pc.n1 && int32(a) == pc.lastN2) {
		pc.valid = false
	}
	g.adj[a][b>>6] &^= 1 << (uint(b) & 63)
	g.adj[b][a>>6] &^= 1 << (uint(a) & 63)
	g.bumpDeg(a, -1)
	g.bumpDeg(b, -1)
	g.edges--
	if g.clean[a][b>>6]&(1<<(uint(b)&63)) != 0 {
		g.clean[a][b>>6] &^= 1 << (uint(b) & 63)
		g.clean[b][a>>6] &^= 1 << (uint(a) & 63)
		g.bumpCleanDeg(a, -1)
		g.bumpCleanDeg(b, -1)
	}
}

// Neighbors calls fn for every live neighbor of id.
func (g *Graph) Neighbors(id int, fn func(nb int)) {
	row := g.adj[id]
	for wi, w := range row {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &= w - 1
		}
	}
}

// MinDegreePair implements the selection rule of paper Algorithm 2 — the
// node with the smallest non-zero degree, and its smallest-degree
// neighbor — refined along two axes that keep the greedy heuristic from
// wasting resources:
//
//   - clean edges before overlap edges: overlap edges only expand the
//     solution space once no clean option remains, so admitting them can
//     never fragment the clean solution;
//   - TSV-TSV merges before flip-flop attachments: the objective equals
//     (#cliques − #flip-flops used), so a flip-flop anchoring a clique
//     that plain TSVs could have formed by themselves is a flip-flop the
//     other TSV set never gets. Flip-flops join once the pure-TSV merging
//     is exhausted.
//
// ok is false when every node has degree zero.
func (g *Graph) MinDegreePair() (n1, n2 int, ok bool) {
	for _, tier := range [4]struct{ clean, noFF bool }{
		{true, true}, {true, false}, {false, true}, {false, false},
	} {
		if n1, n2, ok = g.minDegreePlane(tier.clean, tier.noFF); ok {
			return n1, n2, true
		}
	}
	return 0, 0, false
}

// minDegreePlane picks one tier's pair: n1 from the degree-bucket index
// (lowest id among the minimal positive degree in the plane, FF-filtered
// when noFF), then n1's minimum-degree eligible neighbor (lowest id on
// ties), served from the pick cache between merges. Selection is
// identical to the O(n)-scan reference minDegreePlaneScan, which the test
// suite pins it against.
func (g *Graph) minDegreePlane(cleanOnly, noFF bool) (n1, n2 int, ok bool) {
	plane := planeAll
	if cleanOnly {
		plane = planeClean
	}
	filter := 0
	if noFF {
		filter = 1
	}
	n1, ok = g.degIdx[plane][filter].min()
	if !ok {
		return 0, 0, false
	}
	deg := func(i int) int32 {
		if cleanOnly {
			return g.nodes[i].cleanDeg
		}
		return g.nodes[i].deg
	}
	key := tierKey(cleanOnly, noFF)
	pc := &g.pick
	if pc.negSet[key] && pc.negN1[key] == int32(n1) {
		return 0, 0, false
	}
	if pc.valid && pc.tier == key && pc.n1 == int32(n1) {
		row := g.adj[n1]
		if cleanOnly {
			row = g.clean[n1]
		}
		// While the cache is valid the only mutation since the last pick
		// can be the deletion of that pair: if its edge is still there,
		// nothing changed and the last pick is still the answer.
		if row[pc.lastN2>>6]&(1<<(uint(pc.lastN2)&63)) != 0 {
			return n1, int(pc.lastN2), true
		}
		for pc.next < len(pc.cands) {
			c := pc.cands[pc.next]
			pc.next++
			// Exactness guard: the candidate must still be adjacent in
			// this plane with the degree recorded at scan time.
			// Violations (an untracked mutation) fall back to a scan.
			if row[c.id>>6]&(1<<(uint(c.id)&63)) != 0 && deg(int(c.id)) == c.deg {
				pc.lastN2 = c.id
				return n1, int(c.id), true
			}
			pc.valid = false
			break
		}
	}
	// Full scan, keeping the pickCacheCap best (degree, id) candidates in
	// sorted order. Ascending-id iteration inserts equal-degree candidates
	// after earlier ids, matching lowest-id tie-breaking.
	pc.valid = false
	pc.cands = pc.cands[:0]
	g.neighborsPlane(n1, cleanOnly, func(nb int) {
		if noFF && g.nodes[nb].HasFF {
			return
		}
		d := deg(nb)
		n := len(pc.cands)
		if n == pickCacheCap && d >= pc.cands[n-1].deg {
			return
		}
		pos := n
		for pos > 0 && pc.cands[pos-1].deg > d {
			pos--
		}
		if n < pickCacheCap {
			pc.cands = append(pc.cands, pickCand{})
		} else {
			n--
		}
		copy(pc.cands[pos+1:], pc.cands[pos:n])
		pc.cands[pos] = pickCand{deg: d, id: int32(nb)}
	})
	if len(pc.cands) == 0 {
		pc.negN1[key] = int32(n1)
		pc.negSet[key] = true
		return 0, 0, false
	}
	pc.valid = true
	pc.tier = key
	pc.n1 = int32(n1)
	pc.next = 1
	pc.lastN2 = pc.cands[0].id
	return n1, int(pc.cands[0].id), true
}

// minDegreePlaneScan is the pre-index reference implementation: a linear
// scan over every node per call. Kept (unexported) as the oracle for
// equivalence tests and the baseline for BenchmarkPartition.
func (g *Graph) minDegreePlaneScan(cleanOnly, noFF bool) (n1, n2 int, ok bool) {
	deg := func(i int) int32 {
		if cleanOnly {
			return g.nodes[i].cleanDeg
		}
		return g.nodes[i].deg
	}
	n1 = -1
	for i := range g.nodes {
		n := &g.nodes[i]
		if !n.alive || deg(i) == 0 || (noFF && n.HasFF) {
			continue
		}
		if n1 < 0 || deg(i) < deg(n1) {
			n1 = i
		}
	}
	if n1 < 0 {
		return 0, 0, false
	}
	n2 = -1
	g.neighborsPlane(n1, cleanOnly, func(nb int) {
		if noFF && g.nodes[nb].HasFF {
			return
		}
		if n2 < 0 || deg(nb) < deg(n2) {
			n2 = nb
		}
	})
	if n2 < 0 {
		return 0, 0, false
	}
	return n1, n2, true
}

// minDegreePairScan is MinDegreePair over the scan reference — the oracle
// for the equivalence tests.
func (g *Graph) minDegreePairScan() (n1, n2 int, ok bool) {
	for _, tier := range [4]struct{ clean, noFF bool }{
		{true, true}, {true, false}, {false, true}, {false, false},
	} {
		if n1, n2, ok = g.minDegreePlaneScan(tier.clean, tier.noFF); ok {
			return n1, n2, true
		}
	}
	return 0, 0, false
}

func (g *Graph) neighborsPlane(id int, cleanOnly bool, fn func(nb int)) {
	row := g.adj[id]
	if cleanOnly {
		row = g.clean[id]
	}
	for wi, w := range row {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &= w - 1
		}
	}
}

// FirstEdgePair returns an arbitrary existing edge (the lowest-id live
// node with non-zero degree and its first neighbor) — the ablation
// baseline against MinDegreePair.
func (g *Graph) FirstEdgePair() (n1, n2 int, ok bool) {
	for i := range g.nodes {
		n := &g.nodes[i]
		if !n.alive || n.deg == 0 {
			continue
		}
		first := -1
		g.Neighbors(i, func(nb int) {
			if first < 0 {
				first = nb
			}
		})
		if first >= 0 {
			return i, first, true
		}
	}
	return 0, 0, false
}

// Merge combines adjacent nodes a and b into a new clique node whose
// neighbors are the common neighbors of a and b (preserving the clique
// invariant), then deletes a and b. The caller supplies the merged load;
// position and budget combine automatically.
func (g *Graph) Merge(a, b int, mergedLoad float64) (int, error) {
	if !g.HasEdge(a, b) {
		return -1, fmt.Errorf("wcmgraph: merge of non-adjacent %d, %d", a, b)
	}
	na, nb := &g.nodes[a], &g.nodes[b]
	merged := Node{
		HasFF:   na.HasFF || nb.HasFF,
		Load:    mergedLoad,
		Budget:  minF(na.Budget, nb.Budget),
		Load2:   na.Load2 + nb.Load2,
		Budget2: minF(na.Budget2, nb.Budget2),
		Members: append(append([]int32(nil), na.Members...), nb.Members...),
	}
	switch {
	case na.HasFF:
		merged.FF = na.FF
	case nb.HasFF:
		merged.FF = nb.FF
	}
	merged.X = math.Min(na.X, nb.X)
	merged.Y = math.Min(na.Y, nb.Y)
	merged.X2 = math.Max(na.X2, nb.X2)
	merged.Y2 = math.Max(na.Y2, nb.Y2)

	id, err := g.AddNode(merged)
	if err != nil {
		return -1, err
	}
	// The merged node keeps the common neighbors of a and b (preserving
	// the clique invariant); a merged clique's clean edge to nc requires
	// BOTH members' edges to nc to be clean, otherwise the surviving edge
	// is overlap quality. Every union neighbor's degree nets out to
	// exactly -1 (a common neighbor trades two edges for one; an
	// exclusive neighbor loses its only edge), so each gets a single
	// fused index update instead of an add for the new edge plus removals
	// for the dying ones.
	rowA, rowB := g.adj[a], g.adj[b]
	cleanA, cleanB := g.clean[a], g.clean[b]
	row, cleanRow := g.adj[id], g.clean[id]
	aW, aM := a>>6, uint64(1)<<(uint(a)&63)
	bW, bM := b>>6, uint64(1)<<(uint(b)&63)
	idW, idM := id>>6, uint64(1)<<(uint(id)&63)
	newDeg, newClean := int32(0), int32(0)
	for wi := range rowA {
		wa, wb := rowA[wi], rowB[wi]
		union := wa | wb
		if union == 0 {
			continue
		}
		// w excludes a and b automatically: neither row carries a
		// self-loop bit, so the intersection cannot contain either id.
		w := wa & wb
		cwA, cwB := cleanA[wi], cleanB[wi]
		cw := cwA & cwB & w
		row[wi], cleanRow[wi] = w, cw
		newDeg += int32(bits.OnesCount64(w))
		newClean += int32(bits.OnesCount64(cw))
		for x := union; x != 0; x &= x - 1 {
			nbID := wi*64 + bits.TrailingZeros64(x)
			if nbID == a || nbID == b {
				continue
			}
			m := x & -x
			nbAdj, nbClean := g.adj[nbID], g.clean[nbID]
			nbAdj[aW] &^= aM
			nbAdj[bW] &^= bM
			cleanDelta := int32(0)
			if cwA&m != 0 {
				nbClean[aW] &^= aM
				cleanDelta++
			}
			if cwB&m != 0 {
				nbClean[bW] &^= bM
				cleanDelta++
			}
			if w&m != 0 {
				nbAdj[idW] |= idM
				if cw&m != 0 {
					nbClean[idW] |= idM
					cleanDelta--
				}
			}
			g.edges--
			node := &g.nodes[nbID]
			old := node.deg
			node.deg = old - 1
			g.reindex(planeAll, nbID, old, node.deg, node.HasFF)
			if cleanDelta != 0 {
				oldC := node.cleanDeg
				node.cleanDeg = oldC - cleanDelta
				g.reindex(planeClean, nbID, oldC, node.cleanDeg, node.HasFF)
			}
		}
	}
	g.edges-- // the a-b edge itself
	mn := &g.nodes[id]
	mn.deg, mn.cleanDeg = newDeg, newClean
	g.reindex(planeAll, id, 0, newDeg, mn.HasFF)
	g.reindex(planeClean, id, 0, newClean, mn.HasFF)
	for _, v := range [2]int{a, b} {
		n := &g.nodes[v]
		g.reindex(planeAll, v, n.deg, 0, n.HasFF)
		g.reindex(planeClean, v, n.cleanDeg, 0, n.HasFF)
		n.deg, n.cleanDeg = 0, 0
		clear(g.adj[v])
		clear(g.clean[v])
		n.alive = false
	}
	return id, nil
}

// BBoxUnionDiameter returns the Manhattan diameter of the union of two
// nodes' bounding boxes — the worst-case wire run between any member of
// the merged clique and a wrapper cell placed inside the box.
func BBoxUnionDiameter(a, b *Node) float64 {
	x1 := math.Min(a.X, b.X)
	y1 := math.Min(a.Y, b.Y)
	x2 := math.Max(a.X2, b.X2)
	y2 := math.Max(a.Y2, b.Y2)
	return (x2 - x1) + (y2 - y1)
}

// Cliques returns the live nodes — after partitioning completes, each is
// one clique of the solution.
func (g *Graph) Cliques() []int {
	var out []int
	for i := range g.nodes {
		if g.nodes[i].alive {
			out = append(out, i)
		}
	}
	return out
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
