package wcm

import (
	"fmt"
	"math"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
	"wcm3d/internal/par"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcmgraph"
)

// Run executes the full WCM flow on a die and returns the wrapper plan.
func Run(in Input, opts Options) (*Result, error) {
	return run(in, opts, nil)
}

// run is Run with optional session state (see Session). A nil state keeps
// every phase on the plain from-scratch path; the produced plan is
// identical either way.
func run(in Input, opts Options, st *sessionState) (*Result, error) {
	opts = opts.withDefaults()
	if err := in.validate(opts); err != nil {
		return nil, err
	}
	n := in.Netlist
	available := make(map[netlist.SignalID]bool, len(n.FlipFlops()))
	for _, ff := range n.FlipFlops() {
		available[ff] = true
	}

	res := &Result{Assignment: &scan.Assignment{}, Options: opts}
	first := firstInbound(n, opts.Order)
	phases := []bool{first, !first}
	for pi, isInbound := range phases {
		var memo *phaseMemo
		var sc *stageCache
		if st != nil {
			memo = &st.outboundMemo
			if isInbound {
				memo = &st.inboundMemo
			}
			sc = &st.stages[pi]
		}
		ph := &phaseRunner{in: in, opts: opts, inbound: isInbound, available: available, memo: memo}
		ph.collect()
		var stats PhaseStats
		if sc != nil && sc.replay(ph, res.Assignment) {
			// The phase's exact inputs — item and flip-flop membership and
			// their memo slots (never-reused slot ids certify the cached
			// verdicts) — match a previously computed phase, whose emitted
			// groups are replayed without touching the graph.
			stats = sc.stats
		} else {
			if sc != nil {
				sc.valid = false
			}
			c0, o0 := len(res.Assignment.Control), len(res.Assignment.Observe)
			var err error
			stats, err = ph.run(res.Assignment)
			if err != nil {
				return nil, err
			}
			if sc != nil {
				sc.fill(ph, stats, res.Assignment, c0, o0)
			}
		}
		res.Phases = append(res.Phases, stats)
		if pi == 0 && in.RefreshTiming != nil {
			refreshed, err := in.RefreshTiming(res.Assignment)
			if err != nil {
				return nil, fmt.Errorf("wcm: refreshing timing after first phase: %w", err)
			}
			if refreshed != nil {
				in.Timing = refreshed
			}
		}
	}
	// The wire-aware planner knows where its long test runs are, so it
	// plans repeatered (buffered) test routing; the capacitance-only
	// baseline cannot, and its plan ships unbuffered.
	res.Assignment.BufferedRouting = opts.Timing == TimingCapWire
	res.ReusedFFs = res.Assignment.ReusedFFs()
	res.AdditionalCells = res.Assignment.AdditionalCells()
	if err := res.Assignment.Validate(n); err != nil {
		return nil, fmt.Errorf("wcm: produced invalid plan: %w", err)
	}
	if !res.Assignment.Covered(n) {
		return nil, fmt.Errorf("wcm: plan does not cover every TSV")
	}
	return res, nil
}

// firstInbound reports whether the order policy processes the inbound
// TSV set first on this netlist.
func firstInbound(n *netlist.Netlist, order OrderPolicy) bool {
	switch order {
	case OrderLargerFirst:
		return len(n.InboundTSVs()) >= len(n.OutboundTSVs())
	case OrderSmallerFirst:
		return len(n.InboundTSVs()) < len(n.OutboundTSVs())
	case OrderOutboundFirst:
		return false
	default: // OrderInboundFirst
		return true
	}
}

// phaseRunner builds and partitions the sharing graph for one TSV set.
type phaseRunner struct {
	in        Input
	opts      Options
	inbound   bool
	available map[netlist.SignalID]bool
	// memo, when non-nil, caches masked cones and edge verdicts across
	// runs of a replan session (see Session).
	memo *phaseMemo

	// per-run state
	collected  bool
	items      []int              // item indices that passed the node filter
	excluded   []int              // item indices excluded to dedicated cells
	ffs        []netlist.SignalID // available, eligible flip-flops
	usedFFs    []netlist.SignalID // flip-flops the plan assembly consumed
	tsvSignals []netlist.SignalID // cone anchor per TSV item
	tsvPorts   []int              // outbound only: port index per item
	sourceMask *netlist.BitSet    // sources excluded from cone-overlap tests
	graph      *wcmgraph.Graph
	// nodeMasked and nodeAnchor index the sharing-relevant cone and the
	// anchor signal by graph node id, so the O(n²) edge sweep does two
	// array loads per pair instead of map lookups. nodeMasked is the cone
	// with shared-source signals stripped (cone &^ sourceMask), kept as
	// its nonzero words only. Each sweep row scatters its node's set into
	// a dense netlist.Row, and every pair of the row then costs what the
	// partner's set holds instead of what the die spans, with
	// bit-identical answers. Valid for the initial (pre-merge) nodes only
	// — exactly the ones the sweep visits.
	nodeMasked []netlist.SparseSet
	nodeAnchor []netlist.SignalID
	// nodeSlot maps graph node id to the session memo slot (memo != nil).
	nodeSlot []int32
}

func (ph *phaseRunner) run(asn *scan.Assignment) (PhaseStats, error) {
	stats := PhaseStats{Inbound: ph.inbound}
	_, excluded, err := ph.buildGraph(&stats)
	if err != nil {
		return stats, err
	}

	// ----- Heuristic clique partitioning (Algorithm 2): repeatedly take the
	// minimum-degree node and its minimum-degree neighbor; merge them when
	// mergeFits, otherwise delete the edge; stop when no edges remain.
	stats.Merges, stats.EdgeDeletes, err = ph.graph.Partition(ph.mergeFits)
	if err != nil {
		return stats, err
	}

	// ----- Plan assembly.
	for _, cid := range ph.graph.Cliques() {
		node := ph.graph.Node(cid)
		if len(node.Members) == 0 {
			continue // unused flip-flop
		}
		stats.Cliques++
		ffSig := netlist.InvalidSignal
		if node.HasFF {
			ffSig = netlist.SignalID(node.FF)
			ph.available[ffSig] = false
			ph.usedFFs = append(ph.usedFFs, ffSig)
		}
		ph.emitGroup(asn, ffSig, node.Members)
	}
	for _, i := range excluded {
		ph.emitGroup(asn, netlist.InvalidSignal, []int32{int32(i)})
	}
	return stats, nil
}

// collect runs Algorithm 1's item collection and node filters (lines
// 1-14) plus flip-flop eligibility, leaving the phase's membership lists
// in ph.items/ph.excluded/ph.ffs. Idempotent: the session probes a
// phase's membership before deciding whether to replay it from cache, and
// buildGraph reuses the collected lists.
func (ph *phaseRunner) collect() {
	if ph.collected {
		return
	}
	ph.collected = true
	n := ph.in.Netlist
	if ph.inbound {
		for _, t := range n.InboundTSVs() {
			ph.tsvSignals = append(ph.tsvSignals, t)
		}
		// The node filter guards the wrapper mux's drive capability: the
		// mux takes over driving the pad's downstream pins, so a pad
		// whose pin load exceeds what a library mux can drive is
		// excluded (it gets a dedicated, appropriately-sized wrapper
		// cell). Pin capacitance only — long functional nets carry
		// buffers in a real flow, so wire load is not a drive concern
		// here; the wire-aware budgets police everything timing.
		for i, t := range ph.tsvSignals {
			pinLoad := 0.0
			for _, fo := range n.Graph().FanoutOf(t) {
				pinLoad += ph.in.Lib.Of(n.TypeOf(fo)).InputCapFF
			}
			if pinLoad < PadCapThFF {
				ph.items = append(ph.items, i)
			} else {
				ph.excluded = append(ph.excluded, i)
			}
		}
	} else {
		for _, p := range n.OutboundTSVs() {
			ph.tsvPorts = append(ph.tsvPorts, p)
			ph.tsvSignals = append(ph.tsvSignals, n.Outputs[p].Signal)
		}
		// A port may enter the graph when its driver's slack covers the
		// observation tap (an XOR pin plus one repeater segment slow the
		// driver; the delta rides every functional path through it) on
		// top of the s_th reserve. The fold-XOR chain itself is a
		// test-mode path and is not held to functional slack.
		for i, sig := range ph.tsvSignals {
			if ph.in.Timing.SlackPS(sig)-ph.opts.SlackThPS > ph.tapCostPS(sig) {
				ph.items = append(ph.items, i)
			} else {
				ph.excluded = append(ph.excluded, i)
			}
		}
	}
	for _, ff := range n.FlipFlops() {
		if ph.available[ff] && ph.ffEligible(ff) {
			ph.ffs = append(ph.ffs, ff)
		}
	}
}

// buildGraph runs Algorithm 1 end to end — item collection and node
// filters, cone precomputation, node construction, and the parallel edge
// sweep — leaving the constructed sharing graph in ph.graph. It returns
// the item indices that entered the graph and the ones excluded to
// dedicated cells. Split from run so the graph-construction hot path can
// be measured (BenchmarkGraphBuild) apart from the partitioner.
func (ph *phaseRunner) buildGraph(stats *PhaseStats) (items, excluded []int, err error) {
	n := ph.in.Netlist
	ph.collect()
	items, excluded, ffs := ph.items, ph.excluded, ph.ffs
	stats.FilteredTSVs = len(excluded)

	ph.sourceMask = netlist.NewBitSet(n.NumGates())
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if n.TypeOf(id).IsSource() || n.TypeOf(id) == netlist.GateDFF {
			ph.sourceMask.Set(id)
		}
	}

	// ----- Node construction.
	// Items take node ids [0, len(items)) in admission order, flip-flops
	// the ids after them. The functional costs of sharing are per node (the
	// tap check at item collection, ffEligible), so a node carries only the
	// post-bond drive load its wrapper cell must supply; a flip-flop adds
	// none.
	ph.graph = wcmgraph.New(len(items) + len(ffs))
	load := itemLoadFF(ph.in.Lib, ph.inbound)
	for _, i := range items {
		node := wcmgraph.Node{Members: []int32{int32(i)}, Load: load}
		ph.setPos(&node, ph.tsvSignals[i])
		if _, err := ph.graph.AddNode(node); err != nil {
			return nil, nil, err
		}
	}
	for _, ff := range ffs {
		node := wcmgraph.Node{HasFF: true, FF: int32(ff)}
		ph.setPos(&node, ff)
		if _, err := ph.graph.AddNode(node); err != nil {
			return nil, nil, err
		}
	}
	stats.Nodes = ph.graph.NumAlive()

	// ----- Edge construction (Algorithm 1, lines 16-26). The pair space
	// is O(items × (items + ffs)) evaluations of edgeAllowed — pure reads
	// over the precomputed cones and node fields — so rows are striped
	// across a worker pool, each worker writing verdicts into its rows of
	// a flat buffer: the pair (a, b), a < b, a an item, sits at
	// offs[a]+b-a-1. Each worker owns one dense netlist.Row, ⌈gates/64⌉
	// words, that row a's masked cone is scattered into for the length of
	// its b loop (see sweepRow). The graph's adjacency rows are then
	// loaded straight from the buffer, so the graph and the stats come
	// out byte-identical at every worker count.
	nItems, nNodes := len(items), len(items)+len(ffs)
	ph.nodeAnchor = make([]netlist.SignalID, nNodes)
	for id := 0; id < nNodes; id++ {
		ph.nodeAnchor[id] = ph.anchor(id)
	}
	ph.nodeMasked = make([]netlist.SparseSet, nNodes)
	// Each node's cone is walked into its worker's one dense set, masked
	// into a SparseSet and dropped, so the phase allocates no dense cone
	// per node.
	if ph.memo == nil {
		walkers := make([]*netlist.ConeWalker, par.Workers(ph.opts.Workers, nNodes))
		for w := range walkers {
			walkers[w] = n.NewConeWalker()
		}
		par.Do(ph.opts.Workers, nNodes, func(worker, id int) {
			ph.nodeMasked[id] = ph.coneOf(walkers[worker], id).SparseAndNot(ph.sourceMask)
		})
	} else {
		walker := n.NewConeWalker()
		ph.nodeSlot = make([]int32, nNodes)
		for id := 0; id < nNodes; id++ {
			var key slotKey
			if node := ph.graph.Node(id); node.HasFF {
				key = slotKey{ff: true, sig: netlist.SignalID(node.FF)}
			} else {
				key = slotKey{ff: false, sig: ph.tsvSignals[node.Members[0]]}
			}
			slot, hit := ph.memo.slotFor(key)
			ph.nodeSlot[id] = slot
			// A session run only traverses cones its memo has never
			// seen.
			if !hit {
				ph.memo.masked[slot] = ph.coneOf(walker, id).SparseAndNot(ph.sourceMask)
			}
			ph.nodeMasked[id] = ph.memo.masked[slot]
		}
		ph.memo.verd.ensure(len(ph.memo.masked))
	}
	offs := make([]int, nItems+1)
	for a := 0; a < nItems; a++ {
		offs[a+1] = offs[a] + nNodes - 1 - a
	}
	verdicts := make([]uint8, offs[nItems])
	if ph.memo == nil {
		rows := ph.sweepRows(nItems)
		par.Do(ph.opts.Workers, nItems, func(worker, a int) {
			r := ph.newSweepRow(a, rows[worker])
			k := offs[a]
			for b := a + 1; b < nNodes; b++ {
				verdicts[k] = ph.edgeVerdict(&r, b)
				k++
			}
			r.done()
		})
	} else {
		ph.memoVerdicts(verdicts, offs, nNodes)
	}
	ph.loadEdges(stats, verdicts, offs, nNodes)
	return items, excluded, nil
}

// memoVerdicts fills a session run's verdict buffer from the memo's
// verdict matrix, the authoritative, order-independent edge set. Cells the
// memo has never priced (pairs involving a new slot, or old slots never
// co-present in one run) are computed in the same parallel pass and
// stored back serially afterwards: two nodes may share a slot (outbound
// ports on one driver), so concurrent stores could hit one cell.
func (ph *phaseRunner) memoVerdicts(verdicts []uint8, offs []int, nNodes int) {
	memo := ph.memo
	nItems := len(offs) - 1
	fresh := make([]bool, nItems)
	rows := ph.sweepRows(nItems)
	par.Do(ph.opts.Workers, nItems, func(worker, a int) {
		r := ph.newSweepRow(a, rows[worker])
		sa := ph.nodeSlot[a]
		k := offs[a]
		for b := a + 1; b < nNodes; b++ {
			// Distinct nodes sharing a slot share an anchor, which
			// edgeAllowed rejects unconditionally: no cell is stored.
			v := edgeNone
			if sb := ph.nodeSlot[b]; sa != sb {
				if v = memo.verd.get(sa, sb); v == verdUnknown {
					v = ph.edgeVerdict(&r, b)
					fresh[a] = true
				}
			}
			verdicts[k] = v
			k++
		}
		r.done()
	})
	for a := 0; a < nItems; a++ {
		if !fresh[a] {
			continue
		}
		sa := ph.nodeSlot[a]
		k := offs[a]
		for b := a + 1; b < nNodes; b++ {
			if sb := ph.nodeSlot[b]; sa != sb {
				memo.verd.set(sa, sb, verdicts[k])
			}
			k++
		}
	}
}

// loadEdges writes the verdict buffer straight into the graph's adjacency
// rows and derives the degrees and degree indexes in one pass afterwards.
// Row id collects the verdicts of every pair it belongs to, so each row is
// written by one worker and rows load in parallel at any worker count.
// Item nodes occupy ids [0, len(offs)-1); flip-flop rows only carry item
// bits, as flip-flop pairs are never in the pair space. The graph state is
// bit-identical to one built edge by edge: rows are sets, counters are
// popcounts, and the degree buckets hold the same members.
func (ph *phaseRunner) loadEdges(stats *PhaseStats, verdicts []uint8, offs []int, nNodes int) {
	nItems := len(offs) - 1
	par.Do(ph.opts.Workers, nNodes, func(_, id int) {
		adjRow, cleanRow := ph.graph.BulkRows(id)
		put := func(b int, v uint8) {
			if v == edgeNone {
				return
			}
			adjRow[b>>6] |= 1 << (uint(b) & 63)
			if v == edgeClean {
				cleanRow[b>>6] |= 1 << (uint(b) & 63)
			}
		}
		for b := 0; b < id && b < nItems; b++ {
			put(b, verdicts[offs[b]+id-b-1])
		}
		if id < nItems {
			for b, k := id+1, offs[id]; b < nNodes; b, k = b+1, k+1 {
				put(b, verdicts[k])
			}
		}
	})
	edges, cleanEdges := ph.graph.FinishBulkEdges()
	stats.Edges = edges
	stats.OverlapEdges = edges - cleanEdges
}

// setPos places a node at a signal's placement point (a zero-size box);
// without a placement it stays at the origin.
func (ph *phaseRunner) setPos(node *wcmgraph.Node, sig netlist.SignalID) {
	if ph.in.Placement != nil {
		pt := ph.in.Placement.Coords[sig]
		node.X, node.Y = pt.X, pt.Y
		node.X2, node.Y2 = pt.X, pt.Y
	}
}

// itemLoadFF is the post-bond drive load one TSV adds to a shared wrapper
// cell: its pillar plus the test-mux pin that drives it (control) or the
// fold-XOR pin that observes it (observe).
func itemLoadFF(lib *cells.Library, inbound bool) float64 {
	if inbound {
		return lib.TSVCapFF + lib.Of(netlist.GateMux2).InputCapFF
	}
	return lib.TSVCapFF + lib.Of(netlist.GateXor).InputCapFF
}

// tapCostPS is the functional delay penalty a fold tap puts on the
// observed signal's driver: an XOR pin plus one repeater segment of wire.
func (ph *phaseRunner) tapCostPS(sig netlist.SignalID) float64 {
	if ph.opts.Timing != TimingCapWire {
		return 0 // the capacitance-only model cannot see it
	}
	lib := ph.in.Lib
	xor := lib.Of(netlist.GateXor)
	drive := lib.Of(ph.in.Netlist.TypeOf(sig)).DriveResKOhm
	return drive * (xor.InputCapFF + lib.DriverWireCapFF(lib.TestBufferDistUM))
}

// ffEligible applies the per-flip-flop functional checks of the accurate
// timing model: the control-side test run hangs one repeater segment plus
// a mux pin on Q (spending launch slack), and observe-side reuse inserts a
// mux on the D path (spending capture slack). Under the capacitance-only
// model flip-flops are always eligible — that blindness is what Table III
// punishes.
func (ph *phaseRunner) ffEligible(ff netlist.SignalID) bool {
	if ph.opts.Timing != TimingCapWire {
		return true
	}
	lib := ph.in.Lib
	if ph.inbound {
		r := lib.Of(netlist.GateDFF).DriveResKOhm
		deltaPS := r * (lib.DriverWireCapFF(lib.TestBufferDistUM) + lib.Of(netlist.GateMux2).InputCapFF)
		return deltaPS <= ph.opts.SlackSpendFrac*ph.in.Timing.SlackPS(ff)
	}
	d := ph.in.Netlist.Gate(ff).Fanin[0]
	mux := lib.Of(netlist.GateMux2)
	muxDelay := mux.IntrinsicPS + mux.DriveResKOhm*lib.Of(netlist.GateDFF).InputCapFF
	return muxDelay <= ph.in.Timing.SlackPS(d)-ph.opts.SlackThPS
}

// Edge verdicts recorded by the parallel sweep and loaded into the graph.
const (
	edgeNone uint8 = iota
	edgeClean
	edgeOverlap
)

// sweepRows allocates one dense row per sweep worker over nItems rows.
func (ph *phaseRunner) sweepRows(nItems int) []*netlist.Row {
	rows := make([]*netlist.Row, par.Workers(ph.opts.Workers, nItems))
	for w := range rows {
		rows[w] = netlist.NewRow(ph.in.Netlist.NumGates())
	}
	return rows
}

// sweepRow is row a of the edge sweep: node a's reads that stay constant
// across its b loop (a copy of the node — its bounding box, load and
// budget — its anchor and whether d_th applies), and the worker's dense
// row that holds a's masked cone. The cone is scattered on the row's
// first cone test, so a replan row whose every cell the memo prices never
// writes it, and done clears exactly the words the scatter wrote.
type sweepRow struct {
	a        int
	na       wcmgraph.Node
	anchor   netlist.SignalID
	distTest bool // the d_th test applies
	dense    *netlist.Row
	loaded   bool
}

func (ph *phaseRunner) newSweepRow(a int, dense *netlist.Row) sweepRow {
	return sweepRow{
		a:        a,
		na:       *ph.graph.Node(a),
		anchor:   ph.nodeAnchor[a],
		distTest: !math.IsInf(ph.opts.DistThUM, 1) && ph.in.Placement != nil,
		dense:    dense,
	}
}

// shared counts the combinational gates node b's masked cone shares with
// row a's.
func (ph *phaseRunner) shared(r *sweepRow, b int) int {
	if !r.loaded {
		r.dense.Load(ph.nodeMasked[r.a])
		r.loaded = true
	}
	return r.dense.IntersectCount(ph.nodeMasked[b])
}

// done leaves the worker's dense row all zero for its next sweep row.
func (r *sweepRow) done() { r.dense.Clear() }

// edgeVerdict evaluates pair (r.a, b) for the parallel sweep.
func (ph *phaseRunner) edgeVerdict(r *sweepRow, b int) uint8 {
	ok, overlap := ph.edgeAllowed(r, b)
	switch {
	case !ok:
		return edgeNone
	case overlap:
		return edgeOverlap
	default:
		return edgeClean
	}
}

// edgeAllowed evaluates Algorithm 1's edge conditions for row r's node
// and node b. Apart from r's own dense row it performs only reads (graph
// nodes, precomputed cones, the netlist), so the edge sweep may call it
// from many workers at once, each with its own row.
func (ph *phaseRunner) edgeAllowed(r *sweepRow, b int) (ok, overlap bool) {
	na, nb := &r.na, ph.graph.Node(b)
	// Distance threshold: the merged clique's span must stay within d_th
	// so no member's test wiring runs farther than that.
	if r.distTest {
		if wcmgraph.BBoxUnionDiameter(na, nb) >= ph.opts.DistThUM {
			return false, false
		}
	}
	// The pair must be mergeable at all under the cost model, otherwise
	// the edge only wastes partitioning effort.
	if !ph.mergeFits(na, nb) {
		return false, false
	}
	// Cone conditions.
	if r.anchor == ph.nodeAnchor[b] {
		return false, false // identical signal: XOR folding would cancel
	}
	// Overlap means shared combinational logic; shared sources (a PI
	// feeding both cones, a flip-flop read by both) are independently
	// controllable and do not make sharing unsafe by themselves — the
	// precomputed masked cones have sources already stripped.
	shared := ph.shared(r, b)
	if shared == 0 {
		return true, false
	}
	if !ph.opts.AllowOverlap {
		return false, false
	}
	covLoss, patInc := SharePenalty(ph.in.Netlist, shared)
	if covLoss < ph.opts.CovThFrac && patInc < ph.opts.PatThCount {
		return true, true
	}
	return false, false
}

// coneOf walks the sharing-relevant cone of a (non-merged) graph node into
// w's set: the fan-out cone of its anchor for control sharing, the fan-in
// cone for observation sharing.
func (ph *phaseRunner) coneOf(w *netlist.ConeWalker, id int) *netlist.BitSet {
	if ph.inbound {
		return w.Fanout(ph.nodeAnchor[id])
	}
	return w.Fanin(ph.nodeAnchor[id])
}

// anchor returns the signal a node anchors on. Two nodes can share an
// anchor on the outbound side, when a flip-flop's D driver also feeds a
// TSV port; such pairs never get an edge.
func (ph *phaseRunner) anchor(id int) netlist.SignalID {
	node := ph.graph.Node(id)
	if node.HasFF {
		if ph.inbound {
			return netlist.SignalID(node.FF)
		}
		return ph.in.Netlist.Gate(netlist.SignalID(node.FF)).Fanin[0]
	}
	return ph.tsvSignals[node.Members[0]]
}

// mergeFits is the merge test of Algorithm 2 ("cap + 1 < cap_th"): the two
// cliques' summed post-bond drive load stays strictly under cap_th. Merging
// adds no wire term: test routing is buffered on both sides, so the shared
// wrapper's load does not grow with clique span (control) and the fold
// chain is a relaxed-clock test path (observe). Span is policed by d_th in
// edgeAllowed.
func (ph *phaseRunner) mergeFits(a, b *wcmgraph.Node) bool {
	return a.Load+b.Load < ph.opts.CapThFF
}

// emitGroup appends one clique to the plan.
func (ph *phaseRunner) emitGroup(asn *scan.Assignment, ff netlist.SignalID, members []int32) {
	if ph.inbound {
		grp := scan.ControlGroup{ReusedFF: ff}
		for _, m := range members {
			grp.TSVs = append(grp.TSVs, ph.tsvSignals[m])
		}
		asn.Control = append(asn.Control, grp)
		return
	}
	grp := scan.ObserveGroup{ReusedFF: ff}
	for _, m := range members {
		grp.Ports = append(grp.Ports, ph.tsvPorts[m])
	}
	asn.Observe = append(asn.Observe, grp)
}
