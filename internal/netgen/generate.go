// Package netgen generates synthetic gate-level dies with controlled
// statistics. It substitutes for the paper's front end (ITC'99 RTL →
// Design Compiler synthesis → 3D-Craft partitioning): the wrapper-cell
// minimization algorithms are driven entirely by circuit *structure* —
// counts of flip-flops, gates and TSVs, the shape and modularity of
// fan-in/fan-out cones, and net locality — and the generator reproduces
// those statistics for every die of Table II exactly (counts) or
// realistically (cones, locality).
//
// Three structural properties matter and are engineered deliberately:
//
//   - bounded combinational depth (roughly 10-45 levels, like synthesized
//     logic): deep random logic is random-pattern resistant and full of
//     functional redundancy;
//   - no dead logic and few redundant fanin pairs: synthesis output is
//     (nearly) fully testable, so the generator drains dangling outputs
//     into downstream consumers and rejects ancestor-related fanin pairs
//     (absorption redundancy);
//   - modular cone structure: a partitioned die is a union of loosely
//     coupled subcircuits, so fan-in/fan-out cones of most flip-flop/TSV
//     pairs are disjoint — the property that makes scan-flip-flop reuse
//     (the paper's whole subject) possible at all. Gates are generated in
//     clusters with only a few percent of cross-cluster nets.
//
// Generation is deterministic: equal profile + seed → byte-identical die.
package netgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"wcm3d/internal/netlist"
)

// gateMix is the synthesis-typical distribution of combinational cell
// types (NAND/NOR-heavy, occasional XOR/MUX, sparse buffers).
var gateMix = []struct {
	typ    netlist.GateType
	weight int
}{
	{netlist.GateNand, 24},
	{netlist.GateNor, 16},
	{netlist.GateAnd, 14},
	{netlist.GateOr, 12},
	{netlist.GateNot, 14},
	{netlist.GateXor, 7},
	{netlist.GateXnor, 4},
	{netlist.GateMux2, 5},
	{netlist.GateBuf, 4},
}

var gateMixTotal = func() int {
	t := 0
	for _, g := range gateMix {
		t += g.weight
	}
	return t
}()

func pickType(rng *rand.Rand) netlist.GateType {
	r := rng.Intn(gateMixTotal)
	for _, g := range gateMix {
		if r < g.weight {
			return g.typ
		}
		r -= g.weight
	}
	return netlist.GateNand
}

// targetClusterGates sizes the loosely-coupled subcircuits.
const targetClusterGates = 70

// importsPerCluster is the number of foreign source signals (PIs, TSV
// pads, flip-flop outputs from other clusters) mixed into each cluster's
// candidate pool. Imports add independent variables — keeping the local
// logic irredundant even in source-poor clusters — and create the long
// cross-die nets that make wire-aware timing meaningful, without chaining
// combinational depth across clusters.
const importsPerCluster = 6

// Generate builds a die matching the profile exactly. The base seed is
// mixed with the profile name, so each die of a suite gets an independent
// but reproducible stream.
func Generate(p Profile, seed int64) (*netlist.Netlist, error) {
	if p.Gates < 4 {
		return nil, fmt.Errorf("netgen: profile %s needs at least 4 gates, got %d", p.Name(), p.Gates)
	}
	if p.PIs < 1 {
		p.PIs = 4
	}
	if p.POs < 1 {
		p.POs = 4
	}
	if p.PIs+p.InboundTSVs+p.ScanFFs == 0 {
		return nil, fmt.Errorf("netgen: profile %s has no sources", p.Name())
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", p.Name(), seed)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	// The gates are built in one slice, sized once, and handed to the
	// netlist in one AppendGates call after the fabric. The pin arena is
	// sized for gateMix's mean of about 2.06 pins a gate, so one chunk
	// nearly always holds the die's fanins.
	sources := p.PIs + p.InboundTSVs + p.ScanFFs
	gen := &generator{rng: rng, gates: make([]netlist.Gate, 0, sources+p.Gates),
		pins:      make([]netlist.SignalID, 0, p.ScanFFs+9*p.Gates/4),
		ancestors: make([][]netlist.SignalID, sources, sources+p.Gates),
		ancSeen:   make([]uint32, sources, sources+p.Gates),
		ancPool:   make([]netlist.SignalID, 0, 1<<14)}

	// ---- Sources: primary inputs, inbound TSV pads, flip-flops (Q side).
	var pis, tins, ffs []netlist.SignalID
	for i := 0; i < p.PIs; i++ {
		pis = append(pis, gen.add(netlist.GateInput, nil))
	}
	for i := 0; i < p.InboundTSVs; i++ {
		tins = append(tins, gen.add(netlist.GateTSVIn, nil))
	}
	for i := 0; i < p.ScanFFs; i++ {
		// D temporarily tied to a PI; rewired to real logic below.
		d := carve(&gen.pins, 1)
		d[0] = pis[rng.Intn(p.PIs)]
		ffs = append(ffs, gen.add(netlist.GateDFF, d))
	}

	// ---- Cluster assignment. Every cluster gets a roughly even share of
	// each source kind, so flip-flops and TSVs spread across the die's
	// subcircuits the way a min-cut partitioner leaves them.
	nClusters := p.Gates / targetClusterGates
	if nClusters < 1 {
		nClusters = 1
	}
	clusters := make([]*clusterState, nClusters)
	for c := range clusters {
		clusters[c] = &clusterState{}
	}
	gen.clusters = clusters
	assign := func(sigs []netlist.SignalID) {
		perm := rng.Perm(len(sigs))
		for i, pi := range perm {
			c := clusters[i%nClusters]
			c.sources = append(c.sources, sigs[pi])
		}
	}
	assign(pis)
	assign(tins)
	assign(ffs)
	ffCluster := make(map[netlist.SignalID]int)
	for ci, c := range clusters {
		for _, s := range c.sources {
			if gen.gates[s].Type == netlist.GateDFF {
				ffCluster[s] = ci
			}
		}
	}

	// Gate budget per cluster, proportional to source count.
	totalSources := len(pis) + len(tins) + len(ffs)
	assigned := 0
	for _, c := range clusters {
		c.gateBudget = p.Gates * len(c.sources) / totalSources
		if c.gateBudget < 2 {
			c.gateBudget = 2
		}
		assigned += c.gateBudget
	}
	// Distribute the rounding remainder (may be negative).
	for i := 0; assigned != p.Gates; i = (i + 1) % nClusters {
		if assigned < p.Gates {
			clusters[i].gateBudget++
			assigned++
		} else if clusters[i].gateBudget > 2 {
			clusters[i].gateBudget--
			assigned--
		}
	}

	// Imports: each cluster sees a few foreign sources as extra
	// independent variables. Primary inputs are imported preferentially:
	// they behave like global control nets (reset/enable) and — unlike
	// flip-flops and TSV pads — their fan-out cones play no role in the
	// wrapper-cell sharing conditions, so heavy PI fanout does not erode
	// the cone modularity the reuse methods depend on.
	if nClusters > 1 {
		ffPool := append([]netlist.SignalID(nil), ffs...)
		for _, c := range clusters {
			local := make(map[netlist.SignalID]bool, len(c.sources))
			for _, s := range c.sources {
				local[s] = true
			}
			for _, pi := range pis {
				if len(c.imports) >= importsPerCluster {
					break
				}
				if !local[pi] {
					c.imports = append(c.imports, pi)
				}
			}
			for tries := 0; len(c.imports) < importsPerCluster && tries < 4*len(ffPool); tries++ {
				cand := ffPool[rng.Intn(len(ffPool))]
				if !local[cand] && !contains(c.imports, cand) {
					c.imports = append(c.imports, cand)
				}
			}
		}
	}

	// Sink planning: each cluster's logic must converge into the sinks
	// that will consume it — its flip-flops' D pins plus the output
	// ports assigned to it below. The fabric tapers its final layers to
	// that width; logic left dangling beyond the sink count would be
	// unobservable (dead) and gut fault coverage.
	totalPorts := p.OutboundTSVs + p.POs
	for ci, c := range clusters {
		for _, src := range c.sources {
			if gen.gates[src].Type == netlist.GateDFF {
				c.sinks++
			}
		}
		for i := ci; i < totalPorts; i += nClusters {
			c.sinks++
		}
	}

	// ---- Fabric, cluster by cluster.
	for ci := range clusters {
		gen.buildCluster(ci)
	}

	names := slices.Concat(netlist.NumberedNames("pi", p.PIs, nil),
		netlist.NumberedNames("tin", p.InboundTSVs, nil),
		netlist.NumberedNames("ff", p.ScanFFs, nil),
		netlist.NumberedNames("g", len(gen.gates)-sources, nil))
	for i := range gen.gates {
		gen.gates[i].Name = names[i]
	}
	n := netlist.New(p.Name())
	if _, err := n.AppendGates(gen.gates); err != nil {
		return nil, fmt.Errorf("netgen: %w", err)
	}

	// ---- Flip-flop D rewiring: shallow cluster-local logic. Real
	// next-state functions are narrow (a handful of gates per state
	// bit), so the D pin taps the early layers — this keeps each
	// flip-flop's fan-in cone small, which is what makes flip-flops
	// usable as observation wrapper cells (wide cones would overlap
	// every outbound TSV's cone and kill the sharing edges). The
	// wide-cone roots are left for output ports and the splice pass.
	for _, ff := range ffs {
		c := clusters[ffCluster[ff]]
		d := c.pickShallowSink(rng)
		if d == netlist.InvalidSignal {
			return nil, fmt.Errorf("netgen: cluster of %s has no logic for the D pin", n.NameOf(ff))
		}
		if err := n.RewireFanin(ff, 0, d); err != nil {
			return nil, fmt.Errorf("netgen: rewiring FF: %w", err)
		}
	}

	// ---- Output ports: outbound TSVs and bonded POs observe
	// cluster-local signals, spread across clusters.
	for i := 0; i < totalPorts; i++ {
		c := clusters[i%nClusters]
		sig := c.pickSink(rng)
		if sig == netlist.InvalidSignal {
			// Degenerate tiny cluster: fall back to any cluster.
			for _, alt := range clusters {
				if sig = alt.pickSink(rng); sig != netlist.InvalidSignal {
					break
				}
			}
			if sig == netlist.InvalidSignal {
				return nil, fmt.Errorf("netgen: no logic left for port %d", i)
			}
		}
		if i < p.OutboundTSVs {
			if err := n.AddOutput(fmt.Sprintf("tout%d", i), sig, netlist.PortTSVOut); err != nil {
				return nil, fmt.Errorf("netgen: adding outbound TSV: %w", err)
			}
		} else {
			if err := n.AddOutput(fmt.Sprintf("po%d", i-p.OutboundTSVs), sig, netlist.PortPO); err != nil {
				return nil, fmt.Errorf("netgen: adding PO: %w", err)
			}
		}
	}

	// ---- Mop-up, interleaved twice: fold unobservable logic into live
	// XOR gates (spliceDanglers) and rewire never-toggling gates
	// (deconstant). Each pass can expose a little work for the other —
	// a deconstant rewire may orphan a signal, a splice may correlate
	// one — so run the pair twice; the second round is a no-op almost
	// always.
	// clusterOf maps each signal to its cluster, -1 for none.
	clusterOf := make([]int, n.NumGates())
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	for ci, c := range clusters {
		for _, g := range c.gates {
			clusterOf[g] = ci
		}
		for _, src := range c.sources {
			clusterOf[src] = ci
		}
	}
	for round := 0; round < 2; round++ {
		if err := spliceDanglers(n, rng, clusterOf); err != nil {
			return nil, err
		}
		if err := deconstant(n, rng); err != nil {
			return nil, err
		}
	}

	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("netgen: generated die invalid: %w", err)
	}
	return n, nil
}

// spliceDanglers folds dead logic back into the live circuit. Every
// unobservable cone drains into one or more dead roots (combinational
// outputs with no fanout and no port), so splicing each root into a live
// gate rescues its whole cone. A dead root has no descendants, which means
// any observable gate outside the root's fan-in cone is a legal consumer —
// no cycle is possible. XOR/XNOR gates are widened first (an extra XOR pin
// keeps the gate fully sensitive to its existing inputs); other n-ary
// gates serve as fallback, with the deconstant pass cleaning up any
// correlation they introduce.
func spliceDanglers(n *netlist.Netlist, rng *rand.Rand, clusterOf []int) error {
	graph := n.Graph()

	// Observability: backward reachability from FF D pins and ports.
	obs := make([]bool, n.NumGates())
	for _, ff := range n.FlipFlops() {
		obs[n.Gate(ff).Fanin[0]] = true
	}
	for _, o := range n.Outputs {
		obs[o.Signal] = true
	}
	order := graph.Order
	for k := len(order) - 1; k >= 0; k-- {
		id := order[k]
		if obs[id] {
			continue
		}
		for _, fo := range graph.FanoutOf(id) {
			if n.TypeOf(fo).IsCombinational() && obs[fo] {
				obs[id] = true
				break
			}
		}
	}

	hasPort := make([]bool, n.NumGates())
	for _, o := range n.Outputs {
		hasPort[o.Signal] = true
	}
	var roots []netlist.SignalID
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if n.TypeOf(id).IsCombinational() && len(graph.FanoutOf(id)) == 0 && !hasPort[id] {
			roots = append(roots, id)
		}
	}
	if len(roots) == 0 {
		return nil
	}

	const maxPins = 6
	widenable := func(id netlist.SignalID, xorOnly bool) bool {
		if !obs[id] || len(n.Gate(id).Fanin) >= maxPins {
			return false
		}
		switch n.TypeOf(id) {
		case netlist.GateXor, netlist.GateXnor:
			return true
		case netlist.GateAnd, netlist.GateNand, netlist.GateOr, netlist.GateNor:
			return !xorOnly
		default:
			return false
		}
	}
	// Targets are ranked: same-cluster XORs, then same-cluster n-ary
	// gates, then global XORs, then anything. Cluster-local splices
	// preserve the cone modularity the wrapper-reuse methods depend on —
	// a cross-cluster splice would entangle two clusters' fan-out cones.
	var xorTargets, otherTargets []netlist.SignalID
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if widenable(id, true) {
			xorTargets = append(xorTargets, id)
		} else if widenable(id, false) {
			otherTargets = append(otherTargets, id)
		}
	}
	rng.Shuffle(len(xorTargets), func(i, j int) { xorTargets[i], xorTargets[j] = xorTargets[j], xorTargets[i] })
	rng.Shuffle(len(otherTargets), func(i, j int) { otherTargets[i], otherTargets[j] = otherTargets[j], otherTargets[i] })

	// Each root's fan-in cone is stamped into one reused array by a walk
	// over Gate.Fanin, which every splice keeps current. FaninCone would
	// read the derived CSR layout instead, and each AppendFanin below
	// invalidates it, so every root would pay a whole-netlist rebuild. The
	// cone must still be walked after the earlier splices: it can grow
	// through a widened target, and a stale cone would let a splice close
	// a cycle.
	inCone := make([]uint32, n.NumGates())
	var stack []netlist.SignalID
	for k, root := range roots {
		stamp := uint32(k + 1)
		inCone[root] = stamp
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !n.TypeOf(s).IsCombinational() {
				continue // stop at sources and flip-flops
			}
			for _, f := range n.Gate(s).Fanin {
				if inCone[f] != stamp {
					inCone[f] = stamp
					stack = append(stack, f)
				}
			}
		}
		rc := clusterOf[root]
		try := func(tid netlist.SignalID, localOnly bool) bool {
			if localOnly && rc >= 0 && clusterOf[tid] != rc {
				return false
			}
			if len(n.Gate(tid).Fanin) >= maxPins || inCone[tid] == stamp || contains(n.Gate(tid).Fanin, root) {
				return false
			}
			return n.AppendFanin(tid, root) == nil
		}
		spliced := false
		for _, localOnly := range [2]bool{true, false} {
			for _, tid := range xorTargets {
				if try(tid, localOnly) {
					spliced = true
					break
				}
			}
			if !spliced {
				for _, tid := range otherTargets {
					if try(tid, localOnly) {
						spliced = true
						break
					}
				}
			}
			if spliced {
				break
			}
		}
		// With zero eligible targets (pathological tiny circuits) the
		// root stays dead; Validate still passes and the residue is
		// negligible.
	}
	return nil
}

// RandomOptions sizes a random test circuit with no profile constraints.
type RandomOptions struct {
	Gates, FFs, PIs, POs, InboundTSVs, OutboundTSVs int
	Seed                                            int64
}

// Random generates an arbitrary die for tests and fuzzing.
func Random(o RandomOptions) (*netlist.Netlist, error) {
	if o.Gates == 0 {
		o.Gates = 100
	}
	if o.PIs == 0 {
		o.PIs = 4
	}
	if o.POs == 0 {
		o.POs = 2
	}
	return Generate(Profile{
		Circuit:      "rand",
		Die:          0,
		ScanFFs:      o.FFs,
		Gates:        o.Gates,
		InboundTSVs:  o.InboundTSVs,
		OutboundTSVs: o.OutboundTSVs,
		PIs:          o.PIs,
		POs:          o.POs,
	}, o.Seed)
}

// clusterState is the per-subcircuit generation state.
type clusterState struct {
	sources    []netlist.SignalID
	imports    []netlist.SignalID // foreign sources usable as fanin
	gateBudget int
	pool       []netlist.SignalID // all signals of the cluster, creation order
	dangling   []netlist.SignalID // fanout-0 signals, deque (head..end)
	dangHead   int
	gates      []netlist.SignalID // combinational gates only
	sinks      int                // planned consumers (FF D pins + ports)
	sinkUsed   map[netlist.SignalID]bool
}

func (c *clusterState) numDangling() int { return len(c.dangling) - c.dangHead }

// pickSink consumes a dangling combinational signal, or a late gate when
// none dangle, avoiding signals it already handed out (ports on distinct
// nets, like real designs).
func (c *clusterState) pickSink(rng *rand.Rand) netlist.SignalID {
	for c.numDangling() > 0 {
		s := c.dangling[len(c.dangling)-1]
		c.dangling = c.dangling[:len(c.dangling)-1]
		// Sources may still dangle in degenerate clusters; skip them.
		if contains(c.gates, s) {
			c.markSink(s)
			return s
		}
	}
	if len(c.gates) == 0 {
		return netlist.InvalidSignal
	}
	lateFrom := len(c.gates) / 2
	for tries := 0; tries < 16; tries++ {
		s := c.gates[lateFrom+rng.Intn(len(c.gates)-lateFrom)]
		if !c.sinkUsed[s] {
			c.markSink(s)
			return s
		}
	}
	return c.gates[lateFrom+rng.Intn(len(c.gates)-lateFrom)]
}

// pickShallowSink returns a distinct gate from the cluster's first half
// (shallow layers, narrow fan-in cones) for flip-flop D pins.
func (c *clusterState) pickShallowSink(rng *rand.Rand) netlist.SignalID {
	if len(c.gates) == 0 {
		return netlist.InvalidSignal
	}
	upTo := len(c.gates)/2 + 1
	for tries := 0; tries < 16; tries++ {
		s := c.gates[rng.Intn(upTo)]
		if !c.sinkUsed[s] {
			c.markSink(s)
			return s
		}
	}
	return c.gates[rng.Intn(upTo)]
}

func (c *clusterState) markSink(s netlist.SignalID) {
	if c.sinkUsed == nil {
		c.sinkUsed = make(map[netlist.SignalID]bool)
	}
	c.sinkUsed[s] = true
}

func contains(list []netlist.SignalID, s netlist.SignalID) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// generator holds cross-cluster state for the fabric build.
type generator struct {
	rng      *rand.Rand
	clusters []*clusterState
	// gates is the die under construction, indexed by SignalID; names
	// come last. pins backs the gates' fanin lists.
	gates []netlist.Gate
	pins  []netlist.SignalID

	// ancestors is indexed by SignalID (nil for sources) and carved from
	// ancPool, which the netlist does not keep; ancSeen and ancStamp dedupe
	// recordAncestors' insertions without a map per gate.
	ancestors [][]netlist.SignalID
	ancSeen   []uint32
	ancStamp  uint32
	ancBuf    []netlist.SignalID
	ancPool   []netlist.SignalID
}

// add appends a gate and returns its SignalID.
func (g *generator) add(typ netlist.GateType, fanin []netlist.SignalID) netlist.SignalID {
	g.gates = append(g.gates, netlist.Gate{Type: typ, Fanin: fanin})
	return netlist.SignalID(len(g.gates) - 1)
}

// carve cuts k signals from the arena, capped at their length so an
// append (AppendFanin) reallocates instead of overrunning the next gate's
// slice. A full arena moves to a fresh chunk of its first chunk's size.
func carve(arena *[]netlist.SignalID, k int) []netlist.SignalID {
	if len(*arena)+k > cap(*arena) {
		*arena = make([]netlist.SignalID, 0, max(k, cap(*arena)))
	}
	lo := len(*arena)
	*arena = (*arena)[:lo+k]
	return (*arena)[lo : lo+k : lo+k]
}

// ancCap truncates the approximate ancestor sets used to reject
// absorption-redundant fanin pairs.
const ancCap = 256

func (g *generator) related(a, b netlist.SignalID) bool {
	for _, x := range g.ancestors[a] {
		if x == b {
			return true
		}
	}
	for _, x := range g.ancestors[b] {
		if x == a {
			return true
		}
	}
	return false
}

// buildCluster generates one cluster's layered fabric.
func (g *generator) buildCluster(ci int) {
	c := g.clusters[ci]
	rng := g.rng
	c.pool = append(c.pool, c.sources...)
	c.pool = append(c.pool, c.imports...)
	rng.Shuffle(len(c.pool), func(i, j int) { c.pool[i], c.pool[j] = c.pool[j], c.pool[i] })
	c.dangling = append(c.dangling, c.sources...)
	rng.Shuffle(len(c.dangling), func(i, j int) { c.dangling[i], c.dangling[j] = c.dangling[j], c.dangling[i] })

	// Keep layers wide (roughly 10 gates) so in-cluster logic stays
	// shallow; deep narrow chains over few variables collapse into
	// redundant functions.
	depth := 3 + c.gateBudget/10
	if depth > 28 {
		depth = 28
	}
	boundary := len(c.pool)

	popBack := func() netlist.SignalID {
		s := c.dangling[len(c.dangling)-1]
		c.dangling = c.dangling[:len(c.dangling)-1]
		return s
	}
	popFront := func() netlist.SignalID {
		s := c.dangling[c.dangHead]
		c.dangHead++
		return s
	}
	// The cluster is built as a near-forest: gates overwhelmingly consume
	// fresh (fanout-free) signals, and when the dangling pool runs dry a
	// source or import is re-issued as a new leaf. Trees are fully
	// testable; the limited pool picks below add realistic reconvergent
	// fanout without collapsing the logic into redundant functions.
	leaves := append(append([]netlist.SignalID(nil), c.sources...), c.imports...)
	pickFanin := func(remaining int) netlist.SignalID {
		switch {
		// Force-drain oldest danglers (the initial sources) when gate
		// capacity runs low: every gate has >= 1 pin, so the backlog
		// stays below the remaining budget.
		case c.numDangling() >= remaining:
			return popFront()
		case c.numDangling() > 0 && rng.Intn(20) < 18:
			return popBack()
		case rng.Intn(3) > 0:
			return leaves[rng.Intn(len(leaves))] // re-leaf a source
		default:
			window := 48
			if window > boundary {
				window = boundary
			}
			return c.pool[boundary-1-rng.Intn(window)]
		}
	}

	// Layer widths taper linearly from wide entry layers down to the
	// cluster's sink count, so the last layer's outputs match the
	// consumers that will capture them.
	minWidth := c.sinks
	if minWidth < 1 {
		minWidth = 1
	}
	created := 0
	var pending []netlist.SignalID
	for layer := 0; layer < depth && created < c.gateBudget; layer++ {
		remainingLayers := depth - layer
		inLayer := (c.gateBudget - created) / remainingLayers
		// Linear taper: early layers get up to ~1.6x the average, the
		// final stretch narrows toward the sink width.
		frac := float64(layer) / float64(depth)
		inLayer = int(float64(inLayer) * (1.6 - 1.2*frac))
		if inLayer < minWidth {
			inLayer = minWidth
		}
		if layer == depth-1 || inLayer > c.gateBudget-created {
			inLayer = c.gateBudget - created
		}
		boundary = len(c.pool)
		c.dangling = append(c.dangling, pending...)
		pending = pending[:0]
		for i := 0; i < inLayer; i++ {
			typ := pickType(rng)
			var nIn int
			switch {
			case typ == netlist.GateNot || typ == netlist.GateBuf:
				nIn = 1
			case typ == netlist.GateMux2:
				nIn = 3
			default:
				nIn = 2 + rng.Intn(4)/3 // mostly 2-input, some 3-input
			}
			fanin := carve(&g.pins, nIn)
			for j := range fanin {
				// Distinct, non-ancestor-related pins: duplicates and
				// dominated pairs breed redundancy synthesis would
				// have removed. When local picks keep colliding, fall
				// back to an independent source leaf: a complementary
				// pair accepted here would make the gate constant and
				// poison its whole fan-in tree with untestable faults.
				bad := func(cand netlist.SignalID) bool {
					for _, prev := range fanin[:j] {
						if prev == cand || g.related(prev, cand) {
							return true
						}
					}
					return false
				}
				picked := false
				for attempt := 0; attempt < 12; attempt++ {
					if cand := pickFanin(c.gateBudget - created); !bad(cand) {
						fanin[j] = cand
						picked = true
						break
					}
				}
				for attempt := 0; attempt < 12 && !picked; attempt++ {
					if cand := leaves[rng.Intn(len(leaves))]; !bad(cand) {
						fanin[j] = cand
						picked = true
					}
				}
				if !picked {
					fanin[j] = leaves[rng.Intn(len(leaves))]
				}
			}
			gid := g.add(typ, fanin)
			created++
			c.pool = append(c.pool, gid)
			c.gates = append(c.gates, gid)
			pending = append(pending, gid)
			g.recordAncestors(gid, fanin)
		}
	}
	c.dangling = append(c.dangling, pending...)

	// Compact: drop entries that gained fanout via later picks.
	fanouts := map[netlist.SignalID]bool{}
	for _, gid := range c.gates {
		for _, f := range g.gates[gid].Fanin {
			fanouts[f] = true
		}
	}
	var live []netlist.SignalID
	for _, s := range c.dangling[c.dangHead:] {
		if !fanouts[s] {
			live = append(live, s)
		}
	}
	c.dangling, c.dangHead = live, 0
}

func (g *generator) recordAncestors(gid netlist.SignalID, fanin []netlist.SignalID) {
	if need := len(g.gates); len(g.ancestors) < need {
		g.ancestors = append(g.ancestors, make([][]netlist.SignalID, need-len(g.ancestors))...)
		g.ancSeen = append(g.ancSeen, make([]uint32, need-len(g.ancSeen))...)
	}
	g.ancStamp++
	anc := g.ancBuf[:0]
	add := func(x netlist.SignalID) {
		if g.ancSeen[x] == g.ancStamp || len(anc) >= ancCap {
			return
		}
		g.ancSeen[x] = g.ancStamp
		anc = append(anc, x)
	}
	for _, f := range fanin {
		add(f)
	}
	for _, f := range fanin {
		for _, x := range g.ancestors[f] {
			add(x)
		}
	}
	g.ancBuf = anc
	g.ancestors[gid] = carve(&g.ancPool, len(anc))
	copy(g.ancestors[gid], anc)
}

// deconstant finds combinational gates whose output never toggles across a
// random-simulation sweep and rewires one input pin to an independent
// source, repeating until the sweep finds nothing. Rewiring to a level-0
// source can never create a cycle. A pin whose source is a pad or
// flip-flop with no other fan-out keeps its source — rewiring it would
// strand that source — so the rewire takes the next pin that strands
// nothing, or skips the gate when every pin would.
//
// The graph is derived once per call. A rewire points a pin at a source,
// and the topological order lists every source first, so the order stays
// valid: each sweep evaluates a local copy of the fanin CSR that the
// rewires patch in place alongside the netlist.
func deconstant(n *netlist.Netlist, rng *rand.Rand) error {
	base := n.Graph()
	g := &netlist.Graph{Types: base.Types, FaninOff: base.FaninOff,
		Fanin: slices.Clone(base.Fanin), Order: base.Order}
	nGates := g.NumGates()
	var srcs []netlist.SignalID
	isSrc := make([]bool, nGates)
	for i, t := range g.Types {
		switch t {
		case netlist.GateInput, netlist.GateTSVIn, netlist.GateDFF:
			srcs = append(srcs, netlist.SignalID(i))
			isSrc[i] = true
		}
	}
	if len(srcs) == 0 {
		return nil
	}
	// fanout counts each signal's consuming pins.
	fanout := make([]int32, nGates)
	for _, f := range g.Fanin {
		fanout[f]++
	}
	strands := func(src netlist.SignalID) bool { return isSrc[src] && fanout[src] == 1 }
	// The sweep simulates 96 patterns as two 64-bit words per signal, bit
	// p%64 of word p/64 carrying pattern p; the last word holds only 32
	// patterns. Each sweep draws its source bits pattern by pattern into
	// drawn, one row of source words per pattern word, then scatters them
	// once.
	const patterns = 96
	const words = (patterns + 63) / 64
	vals := make([]uint64, words*nGates)
	drawn := make([]uint64, words*len(srcs))
	for sweep := 0; sweep < 4; sweep++ {
		clear(vals)
		clear(drawn)
		for p := 0; p < patterns; p++ {
			row := drawn[p/64*len(srcs) : (p/64+1)*len(srcs)]
			for si := range row {
				row[si] |= uint64(rng.Intn(2)) << (p % 64)
			}
		}
		for si, s := range srcs {
			for w := 0; w < words; w++ {
				vals[int(s)*words+w] = drawn[w*len(srcs)+si]
			}
		}
		if err := g.EvaluateWords(vals); err != nil {
			return fmt.Errorf("netgen: deconstant sim: %w", err)
		}
		fixed := 0
		for i, t := range g.Types {
			id := netlist.SignalID(i)
			if !t.IsCombinational() || toggles(vals[i*words:i*words+words], patterns) {
				continue
			}
			fanin := g.FaninOf(id)
			pin := rng.Intn(len(fanin))
			for k := 0; k < len(fanin) && strands(fanin[pin]); k++ {
				pin = (pin + 1) % len(fanin)
			}
			if strands(fanin[pin]) {
				continue
			}
			for tries := 0; tries < 8; tries++ {
				cand := srcs[rng.Intn(len(srcs))]
				if !contains(fanin, cand) {
					fanout[fanin[pin]]--
					fanout[cand]++
					if err := n.RewireFanin(id, pin, cand); err != nil {
						return fmt.Errorf("netgen: deconstant rewire: %w", err)
					}
					fanin[pin] = cand
					fixed++
					break
				}
			}
		}
		if fixed == 0 {
			return nil
		}
	}
	return nil
}

// toggles reports whether a signal takes both values across the first
// `patterns` bits of its simulation words.
func toggles(words []uint64, patterns int) bool {
	var ones, zeros uint64
	for w, v := range words {
		mask := ^uint64(0)
		if rest := patterns - 64*w; rest < 64 {
			mask = 1<<rest - 1
		}
		ones |= v & mask
		zeros |= ^v & mask
	}
	return ones != 0 && zeros != 0
}
