// Package wcmgraph implements the sharing graph of the wrapper-cell
// minimization problem (paper §III): nodes are scan flip-flops and TSVs, an
// edge means "these two can share one wrapper cell", and the heuristic
// clique partitioner (paper Algorithm 2, Graph.Partition) repeatedly merges
// the minimum-degree adjacent pair, deleting the edge when the merge does
// not fit.
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
	// Load is the clique's post-bond drive load: the capacitance a shared
	// wrapper cell must drive (TSV pillar plus pin capacitance per member,
	// no wires). Merge sums it; the caller's fits test bounds it.
	Load float64
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
	// over all nodes per pick. First axis: plane (all edges, clean edges);
	// second axis: node kind (non-flip-flop, flip-flop). The two kinds are
	// disjoint views, so a degree change moves a node in exactly one view
	// of its plane; a tier that admits flip-flops takes the lower
	// (degree, id) of the two minima. Every degree mutation flows through
	// reindex.
	degIdx [2][2]degIndex
	// allIndexed reports whether the all-plane views are built. They are
	// built on first use: the tiers that read them are only reached once
	// the clean plane has no edge left, so a partition does no all-plane
	// index upkeep while clean edges remain.
	allIndexed bool
	// noPair memoizes, per tier, the minimum node last found to have no
	// eligible neighbor (-1: none known). Deleting edges never gives a
	// node an eligible neighbor, so an entry holds until an edge or node
	// is added (merges add a node).
	noPair [4]int32
}

// Index axes for degIdx.
const (
	planeAll   = 0
	planeClean = 1
	kindTSV    = 0 // nodes without a flip-flop
	kindFF     = 1
)

// tiers is the selection order of MinDegreePair and Partition: clean edges
// before overlap edges, and within a plane pure-TSV pairs before pairs that
// may attach a flip-flop.
var tiers = [4]struct {
	plane int
	noFF  bool
}{{planeClean, true}, {planeClean, false}, {planeAll, true}, {planeAll, false}}

// New creates a graph able to hold up to initialNodes original nodes plus
// all merge products (capacity 2×initialNodes).
func New(initialNodes int) *Graph {
	capIDs := 2*initialNodes + 1
	g := &Graph{
		words: (capIDs + 63) / 64,
		cap:   capIDs,
	}
	for p := range g.degIdx {
		for k := range g.degIdx[p] {
			g.degIdx[p][k].init(capIDs)
		}
	}
	g.forgetNoPair()
	return g
}

// degIndex is one degree-bucket view: a bitset of node ids per degree
// value, plus a lazily-advanced minimum-degree cursor. Membership is
// "alive with positive degree in this view's plane, of this view's kind".
// add/remove are O(1); min is O(row words) on the lowest non-empty bucket.
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
// same node a lowest-id-tie-broken linear scan over ascending ids finds —
// and its degree.
func (x *degIndex) min() (id int, deg int32, ok bool) {
	if x.size == 0 {
		return -1, 0, false
	}
	d := x.minDeg
	for x.counts[d] == 0 {
		d++
	}
	x.minDeg = d // removals only raise the minimum; adds lower it eagerly
	for wi, w := range x.buckets[d] {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w), d, true
		}
	}
	panic("wcmgraph: degree index count drifted from bucket contents")
}

// tierMin returns the lowest (degree, id) node with positive degree in
// the plane, among non-flip-flop nodes only when noFF.
func (g *Graph) tierMin(plane int, noFF bool) (int, bool) {
	if plane == planeAll && !g.allIndexed {
		g.allIndexed = true
		for i := range g.nodes {
			if n := &g.nodes[i]; n.alive {
				g.reindex(planeAll, i, 0, n.deg, n.HasFF)
			}
		}
	}
	id, d, ok := g.degIdx[plane][kindTSV].min()
	if noFF {
		return id, ok
	}
	fid, fd, fok := g.degIdx[plane][kindFF].min()
	if fok && (!ok || fd < d || (fd == d && fid < id)) {
		return fid, true
	}
	return id, ok
}

func kindOf(hasFF bool) int {
	if hasFF {
		return kindFF
	}
	return kindTSV
}

func (g *Graph) forgetNoPair() {
	g.noPair = [4]int32{-1, -1, -1, -1}
}

// degOf returns a node's degree in the plane.
func (g *Graph) degOf(plane, id int) int32 {
	if plane == planeClean {
		return g.nodes[id].cleanDeg
	}
	return g.nodes[id].deg
}

// rowOf returns a node's adjacency row in the plane.
func (g *Graph) rowOf(plane, id int) []uint64 {
	if plane == planeClean {
		return g.clean[id]
	}
	return g.adj[id]
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
	if old == cur || (plane == planeAll && !g.allIndexed) {
		return
	}
	x := &g.degIdx[plane][kindOf(hasFF)]
	if old > 0 {
		x.remove(id, old)
	}
	if cur > 0 {
		x.add(id, cur)
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
	if n.X2 < n.X {
		n.X2 = n.X
	}
	if n.Y2 < n.Y {
		n.Y2 = n.Y
	}
	n.alive = true
	n.deg, n.cleanDeg = 0, 0 // a new node enters the degree indexes via bumpDeg
	g.forgetNoPair()
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
	g.forgetNoPair()
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
	g.forgetNoPair()
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
func (g *Graph) Neighbors(id int, fn func(nb int)) { g.neighborsPlane(id, false, fn) }

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
	for _, t := range tiers {
		if n1, n2, ok = g.minDegreePlane(t.plane == planeClean, t.noFF); ok {
			return n1, n2, true
		}
	}
	return 0, 0, false
}

// minDegreePlane picks one tier's pair: n1 from the degree-bucket index
// (lowest id among the minimal positive degree in the plane, flip-flops
// excluded when noFF), then n1's minimum-degree eligible neighbor (lowest
// id on ties). Selection is identical to the O(n)-scan reference
// minDegreePlaneScan, which the test suite pins it against.
func (g *Graph) minDegreePlane(cleanOnly, noFF bool) (n1, n2 int, ok bool) {
	k := 0
	if !cleanOnly {
		k = 2
	}
	if !noFF {
		k++
	}
	n1, ok = g.tierMin(tiers[k].plane, noFF)
	if !ok {
		return 0, 0, false
	}
	sc, ok := g.scanTier(k, n1, nil)
	if !ok {
		return 0, 0, false
	}
	return n1, sc.best, true
}

// tierScan is one pass over a tier's n1 row: the lowest (degree, id)
// eligible neighbor that fits, and the stop candidate (see scanTier).
type tierScan struct {
	best, stop   int // -1 when absent
	bestD, stopD int32
}

// scanTier makes one pass over n1's neighbors in tier k (plane, and
// non-flip-flop neighbors only when the tier excludes flip-flops). ok is
// false when n1 has no eligible neighbor, which is memoized in noPair.
// best is the lowest (degree, id) eligible neighbor c with fits(n1, c),
// every neighbor fitting when fits is nil; -1 when none fits.
//
// stop serves Partition's batched deletions and is only sought when the
// tier admits flip-flops and n1 is one. The tier before it, the same
// plane without flip-flops, failed: its minimum non-flip-flop node has no
// non-flip-flop neighbor. Deleting (n1, c) for a non-flip-flop c lowers
// c's degree in that tier's view, which can make c its new minimum and
// revive it. stop is the lowest (degree, id) such candidate whose lowered
// key would undercut that minimum; the batch must end with it. (The
// minimum itself is exempt: it gains no neighbor by losing one.)
func (g *Graph) scanTier(k, n1 int, fits func(a, b *Node) bool) (sc tierScan, ok bool) {
	t := tiers[k]
	if g.noPair[k] == int32(n1) {
		return sc, false
	}
	sc = tierScan{best: -1, stop: -1, bestD: math.MaxInt32, stopD: math.MaxInt32}
	node1 := &g.nodes[n1]
	stopRule := !t.noFF && node1.HasFF
	var minD int32
	minID := -1
	if stopRule {
		minID, minD, _ = g.degIdx[t.plane][kindTSV].min()
	}
	found := false
	row := g.rowOf(t.plane, n1)
	for wi, w := range row {
		for ; w != 0; w &= w - 1 {
			c := wi*64 + bits.TrailingZeros64(w)
			nc := &g.nodes[c]
			if t.noFF && nc.HasFF {
				continue
			}
			found = true
			// Ascending ids: a candidate only displaces an earlier one on
			// a strictly lower degree, which is lowest-id tie-breaking.
			d := g.degOf(t.plane, c)
			if d < sc.bestD && (fits == nil || fits(node1, nc)) {
				sc.best, sc.bestD = c, d
			}
			if stopRule && !nc.HasFF && d < sc.stopD && c != minID &&
				(d-1 < minD || (d-1 == minD && c < minID)) {
				sc.stop, sc.stopD = c, d
			}
		}
	}
	if !found {
		g.noPair[k] = int32(n1)
		return sc, false
	}
	return sc, true
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
	for _, t := range tiers {
		if n1, n2, ok = g.minDegreePlaneScan(t.plane == planeClean, t.noFF); ok {
			return n1, n2, true
		}
	}
	return 0, 0, false
}

func (g *Graph) neighborsPlane(id int, cleanOnly bool, fn func(nb int)) {
	plane := planeAll
	if cleanOnly {
		plane = planeClean
	}
	for wi, w := range g.rowOf(plane, id) {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &= w - 1
		}
	}
}

// Merge combines adjacent nodes a and b into a new clique node whose
// neighbors are the common neighbors of a and b (preserving the clique
// invariant), then deletes a and b. The merged load is the sum of the two
// loads, and the bounding box is the union of the two boxes.
func (g *Graph) Merge(a, b int) (int, error) {
	if !g.HasEdge(a, b) {
		return -1, fmt.Errorf("wcmgraph: merge of non-adjacent %d, %d", a, b)
	}
	na, nb := &g.nodes[a], &g.nodes[b]
	merged := Node{
		HasFF:   na.HasFF || nb.HasFF,
		Load:    na.Load + nb.Load,
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

// Partition runs paper Algorithm 2 to completion: take the first tier's
// pair under MinDegreePair's rule, merge it when fits(n1, n2), delete the
// edge otherwise, and stop when no edge remains. It returns the number of
// merges and edge deletions, and leaves the graph exactly as that
// one-pick-at-a-time loop does (PartitionScan, which the tests pin it to).
//
// It runs one pass per n1 instead of one pick per deleted edge. While
// fits(n1, n2) fails, n1 stays its tier's pick: deleting (n1, c) lowers
// only n1's and c's degrees, by one each, and c ranked no lower than n1,
// so the remaining candidates keep their order too. The failed picks are
// therefore exactly the eligible neighbors ranked below c*, the lowest
// (degree, id) one that fits — fits reads the two nodes alone, which the
// deletions leave unchanged — and the pick after them is (n1, c*). One
// pass finds c*, deletes the neighbors ranked below it (all of them when
// none fits) and merges. The exception is scanTier's stop candidate, which
// can revive an earlier tier: the pass then ends with it and the tiers are
// picked afresh.
func (g *Graph) Partition(fits func(a, b *Node) bool) (merges, edgeDeletes int, err error) {
pick:
	for {
		for k, t := range tiers {
			n1, ok := g.tierMin(t.plane, t.noFF)
			if !ok {
				continue
			}
			sc, ok := g.scanTier(k, n1, fits)
			if !ok {
				continue
			}
			if sc.stop >= 0 && (sc.best < 0 || sc.stopD < sc.bestD || (sc.stopD == sc.bestD && sc.stop < sc.best)) {
				// Ranked below (stopD, stop+1) is ranked at or below stop.
				edgeDeletes += g.deleteRanked(k, n1, sc.stopD, sc.stop+1)
				continue pick
			}
			edgeDeletes += g.deleteRanked(k, n1, sc.bestD, sc.best)
			if sc.best >= 0 {
				if _, err := g.Merge(n1, sc.best); err != nil {
					return merges, edgeDeletes, err
				}
				merges++
			}
			continue pick
		}
		return merges, edgeDeletes, nil
	}
}

// deleteRanked deletes the edges from n1 to its eligible neighbors in tier
// k that rank below (cutD, cut) by (degree, id), and returns how many it
// deleted. A neighbor's degree is still the one scanTier read: only n1's
// and the deleted neighbors' degrees move, and n1's is reindexed once at
// the end.
func (g *Graph) deleteRanked(k, n1 int, cutD int32, cut int) int {
	t := tiers[k]
	adj1, clean1 := g.adj[n1], g.clean[n1]
	row := g.rowOf(t.plane, n1)
	n1W, n1M := n1>>6, uint64(1)<<(uint(n1)&63)
	deleted, cleanDeleted := int32(0), int32(0)
	for wi := range row {
		for w := row[wi]; w != 0; w &= w - 1 {
			c := wi*64 + bits.TrailingZeros64(w)
			nc := &g.nodes[c]
			if t.noFF && nc.HasFF {
				continue
			}
			if d := g.degOf(t.plane, c); d > cutD || (d == cutD && c >= cut) {
				continue
			}
			m := w & -w
			adj1[wi] &^= m
			g.adj[c][n1W] &^= n1M
			g.bumpDeg(c, -1)
			if clean1[wi]&m != 0 {
				clean1[wi] &^= m
				g.clean[c][n1W] &^= n1M
				g.bumpCleanDeg(c, -1)
				cleanDeleted++
			}
			deleted++
		}
	}
	g.edges -= int(deleted)
	g.bumpDeg(n1, -deleted)
	g.bumpCleanDeg(n1, -cleanDeleted)
	return int(deleted)
}

// PartitionScan is Partition one pick at a time over the O(n)-scan
// reference picker: pick a pair, merge it when it fits, delete the edge
// otherwise. It is the oracle Partition is tested against, in this
// package on random graphs and in package wcm on real phase graphs.
func (g *Graph) PartitionScan(fits func(a, b *Node) bool) (merges, edgeDeletes int, err error) {
	for {
		n1, n2, ok := g.minDegreePairScan()
		if !ok {
			return merges, edgeDeletes, nil
		}
		if !fits(&g.nodes[n1], &g.nodes[n2]) {
			g.DeleteEdge(n1, n2)
			edgeDeletes++
			continue
		}
		if _, err := g.Merge(n1, n2); err != nil {
			return merges, edgeDeletes, err
		}
		merges++
	}
}

// BBoxUnionDiameter returns the Manhattan diameter of the union of two
// nodes' bounding boxes — the worst-case wire run between any member of
// the merged clique and a wrapper cell placed inside the box. Plain
// comparisons stand in for math.Min/Max, which differ from them only on
// NaN and on the sign of zero; placement coordinates are finite, and a
// zero's sign cannot change a comparison against the distance threshold.
func BBoxUnionDiameter(a, b *Node) float64 {
	x1, y1, x2, y2 := a.X, a.Y, a.X2, a.Y2
	if b.X < x1 {
		x1 = b.X
	}
	if b.Y < y1 {
		y1 = b.Y
	}
	if b.X2 > x2 {
		x2 = b.X2
	}
	if b.Y2 > y2 {
		y2 = b.Y2
	}
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
