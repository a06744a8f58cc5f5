package verify

import (
	"fmt"
	"math"

	"wcm3d/internal/cells"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

// The oracle is the differential half of the harness: an exhaustive solver
// for the same two-phase WCM problem the heuristic attacks greedily. It
// enumerates every set partition of a phase's TSV items (restricted-growth
// recursion with feasibility pruning), scores each with a maximum bipartite
// matching of eligible flip-flops onto blocks, and keeps the cheapest. On
// dies small enough to enumerate it yields the true per-phase optimum, so
//
//	oracle cells ≤ heuristic cells
//
// is a theorem whenever both face the same item set and flip-flop
// availability — a die where the heuristic beats the oracle indicates a bug
// in one of them, and any gap the other way measures the greedy
// partitioner's real suboptimality.

// DefaultOracleMaxItems bounds the per-phase item count the oracle will
// enumerate. Bell(10) ≈ 1.2e5 partitions is comfortably exhaustive;
// anything bigger risks minutes per die.
const DefaultOracleMaxItems = 10

// OracleOptions tunes the exhaustive solver.
type OracleOptions struct {
	// MaxItems caps the per-phase item count (0 = DefaultOracleMaxItems).
	// Oracle returns an error beyond it rather than silently degrading.
	MaxItems int
	// ReplayConsumption, when non-nil, overrides which flip-flops the
	// first phase consumes: instead of removing the oracle's own matched
	// flip-flops before the second phase, the listed ones are removed.
	// Differential tests pass the heuristic's first-phase reuse set so the
	// second phase's optimum is computed under the exact availability the
	// heuristic faced — making oracle ≤ heuristic a per-phase theorem
	// instead of an expectation about flip-flop abundance.
	ReplayConsumption []netlist.SignalID
}

// OraclePhase reports one phase's optimum.
type OraclePhase struct {
	// Inbound reports which TSV set the phase solved.
	Inbound bool
	// Items and Excluded count graph-admitted vs filtered TSVs.
	Items    int
	Excluded int
	// Blocks is the optimal partition's block count; Reused how many
	// blocks a flip-flop covers.
	Blocks int
	Reused int
	// Cells is the phase's additional wrapper cells:
	// Blocks - Reused + Excluded.
	Cells int
}

// OracleResult is the exhaustive solver's plan.
type OracleResult struct {
	// Assignment is the optimal plan in the same schema the heuristic
	// emits, so verify.Plan can certify it.
	Assignment *scan.Assignment
	// ReusedFFs and AdditionalCells total across phases.
	ReusedFFs       int
	AdditionalCells int
	// Phases holds per-phase detail in processing order.
	Phases [2]OraclePhase
}

// Oracle exhaustively solves the WCM instance. The input bundle must carry
// a nil RefreshTiming: the oracle prices both phases against the base
// analysis, and comparing it against a heuristic run that re-timed between
// phases would misattribute the difference. Thresholds follow opts exactly
// as wcm.Run interprets them.
func Oracle(in wcm.Input, opts wcm.Options, oo OracleOptions) (*OracleResult, error) {
	opts = opts.WithDefaults()
	if in.Netlist == nil || in.Lib == nil || in.Timing == nil {
		return nil, fmt.Errorf("verify: oracle needs netlist, library and timing")
	}
	if in.RefreshTiming != nil {
		return nil, fmt.Errorf("verify: oracle requires RefreshTiming == nil (both phases price against the base analysis)")
	}
	maxItems := oo.MaxItems
	if maxItems == 0 {
		maxItems = DefaultOracleMaxItems
	}
	n := in.Netlist
	available := make(map[netlist.SignalID]bool, len(n.FlipFlops()))
	for _, ff := range n.FlipFlops() {
		available[ff] = true
	}

	res := &OracleResult{Assignment: &scan.Assignment{}}
	firstInbound := phaseOneInbound(opts, n)
	order := [2]bool{firstInbound, !firstInbound}
	for pi, inbound := range order {
		ph, usedFFs, err := oraclePhase(in, opts, inbound, available, maxItems, res.Assignment)
		if err != nil {
			return nil, err
		}
		res.Phases[pi] = ph
		if pi == 0 {
			consumed := usedFFs
			if oo.ReplayConsumption != nil {
				consumed = oo.ReplayConsumption
			}
			for _, ff := range consumed {
				available[ff] = false
			}
		}
	}
	res.Assignment.BufferedRouting = opts.Timing == wcm.TimingCapWire
	res.ReusedFFs = res.Assignment.ReusedFFs()
	res.AdditionalCells = res.Assignment.AdditionalCells()
	return res, nil
}

// oracleMember is one node of a phase's sharing problem: a TSV item or an
// eligible flip-flop.
type oracleMember struct {
	// sig is the anchored signal (pad, port driver, flip-flop Q or D
	// driver); port the outbound port index (-1 otherwise).
	sig    netlist.SignalID
	anchor netlist.SignalID
	port   int
	cone   []netlist.SignalID
	pos    place.Point
	load   float64
}

// oraclePhase solves one TSV set exhaustively and appends the optimal
// groups to asn.
func oraclePhase(in wcm.Input, opts wcm.Options, inbound bool, available map[netlist.SignalID]bool, maxItems int, asn *scan.Assignment) (OraclePhase, []netlist.SignalID, error) {
	n, lib := in.Netlist, in.Lib
	ph := OraclePhase{Inbound: inbound}
	seen := make([]bool, n.NumGates())

	// Item collection and node filters — the same admission rules wcm.Run
	// applies, recomputed from the paper's formulas over naive cones.
	var items, excluded []oracleMember
	if inbound {
		muxCap := lib.Of(netlist.GateMux2).InputCapFF
		for _, t := range n.InboundTSVs() {
			it := oracleMember{sig: t, anchor: t, port: -1}
			pinLoad := 0.0
			for _, fo := range n.Graph().FanoutOf(t) {
				pinLoad += lib.Of(n.TypeOf(fo)).InputCapFF
			}
			if pinLoad >= wcm.PadCapThFF {
				excluded = append(excluded, it)
				continue
			}
			it.cone = naiveFanoutCone(n, t, seen)
			it.load = lib.TSVCapFF + muxCap
			if in.Placement != nil {
				it.pos = in.Placement.Coords[t]
			}
			items = append(items, it)
		}
	} else {
		xorCap := lib.Of(netlist.GateXor).InputCapFF
		for _, p := range n.OutboundTSVs() {
			sig := n.Outputs[p].Signal
			it := oracleMember{sig: sig, anchor: sig, port: p}
			if !(in.Timing.SlackPS(sig)-opts.SlackThPS > oracleTapCostPS(n, lib, opts, sig)) {
				excluded = append(excluded, it)
				continue
			}
			it.cone = naiveFaninCone(n, sig, seen)
			it.load = lib.TSVCapFF + xorCap
			if in.Placement != nil {
				it.pos = in.Placement.Coords[sig]
			}
			items = append(items, it)
		}
	}
	ph.Items, ph.Excluded = len(items), len(excluded)
	if len(items) > maxItems {
		return ph, nil, fmt.Errorf("verify: oracle: %d items exceed the exhaustive bound %d", len(items), maxItems)
	}

	// Eligible flip-flops under the phase's timing admission.
	var ffs []netlist.SignalID
	var ffMembers []oracleMember
	for _, ff := range n.FlipFlops() {
		if !available[ff] || !oracleFFEligible(in, opts, inbound, ff) {
			continue
		}
		m := oracleMember{sig: ff, anchor: ff, port: -1}
		if inbound {
			m.cone = naiveFanoutCone(n, ff, seen)
		} else {
			m.anchor = n.Gate(ff).Fanin[0]
			m.cone = naiveFaninCone(n, m.anchor, seen)
		}
		if in.Placement != nil {
			m.pos = in.Placement.Coords[ff]
		}
		ffs = append(ffs, ff)
		ffMembers = append(ffMembers, m)
	}

	// Pairwise feasibility matrices: Algorithm 1's edge conditions.
	feas := make([][]bool, len(items))
	for i := range items {
		feas[i] = make([]bool, len(items))
	}
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			ok := oraclePairOK(in, opts, &items[i], &items[j], seen)
			feas[i][j], feas[j][i] = ok, ok
		}
	}
	ffFeas := make([][]bool, len(ffMembers))
	for f := range ffMembers {
		ffFeas[f] = make([]bool, len(items))
		for i := range items {
			ffFeas[f][i] = oraclePairOK(in, opts, &ffMembers[f], &items[i], seen)
		}
	}

	best := solveExhaustive(items, feas, ffFeas, opts.CapThFF)

	// Emit the optimal plan: matched blocks reuse their flip-flop,
	// unmatched blocks and every excluded TSV get dedicated cells.
	var used []netlist.SignalID
	emit := func(ff netlist.SignalID, members []oracleMember) {
		if inbound {
			g := scan.ControlGroup{ReusedFF: ff}
			for i := range members {
				g.TSVs = append(g.TSVs, members[i].sig)
			}
			asn.Control = append(asn.Control, g)
			return
		}
		g := scan.ObserveGroup{ReusedFF: ff}
		for i := range members {
			g.Ports = append(g.Ports, members[i].port)
		}
		asn.Observe = append(asn.Observe, g)
	}
	for b, block := range best.blocks {
		ff := netlist.InvalidSignal
		if f := best.matchOf[b]; f >= 0 {
			ff = ffs[f]
			used = append(used, ff)
			ph.Reused++
		}
		ms := make([]oracleMember, 0, len(block))
		for _, i := range block {
			ms = append(ms, items[i])
		}
		emit(ff, ms)
	}
	for i := range excluded {
		emit(netlist.InvalidSignal, excluded[i:i+1])
	}
	ph.Blocks = len(best.blocks)
	ph.Cells = ph.Blocks - ph.Reused + ph.Excluded
	return ph, used, nil
}

// oraclePairOK re-derives one edge of Algorithm 1's sharing graph between
// two members (TSV×TSV or flip-flop×TSV). mark is maskedOverlap's scratch.
func oraclePairOK(in wcm.Input, opts wcm.Options, a, b *oracleMember, mark []bool) bool {
	if a.anchor == b.anchor {
		return false // XOR folding of a signal with itself cancels
	}
	if !math.IsInf(opts.DistThUM, 1) && in.Placement != nil {
		if a.pos.ManhattanTo(b.pos) >= opts.DistThUM {
			return false
		}
	}
	if !(a.load+b.load < opts.CapThFF) {
		return false
	}
	shared := maskedOverlap(in.Netlist, a.cone, b.cone, mark, nil)
	if shared == 0 {
		return true
	}
	if !opts.AllowOverlap {
		return false
	}
	covLoss, patInc := wcm.SharePenalty(in.Netlist, shared)
	return covLoss < opts.CovThFrac && patInc < opts.PatThCount
}

// solveExhaustive enumerates set partitions of the items by restricted
// growth (item k joins an existing block or opens a new one), pruning
// infeasible blocks as they grow, and scores each complete partition with a
// maximum matching of flip-flops onto blocks. It returns the first
// partition attaining the minimum blocks-minus-matched cost — the recursion
// order is fixed, so the result is deterministic.
type oracleBest struct {
	blocks  [][]int
	matchOf []int // block index -> flip-flop index or -1
	cells   int
}

func solveExhaustive(items []oracleMember, feas, ffFeas [][]bool, capTh float64) oracleBest {
	best := oracleBest{cells: len(items) + 1}
	if len(items) == 0 {
		best.cells = 0
		return best
	}
	var blocks [][]int
	var loads []float64
	var recurse func(k int)
	recurse = func(k int) {
		if k == len(items) {
			matched, matchOf := matchFFs(blocks, loads, ffFeas, capTh)
			cells := len(blocks) - matched
			if cells < best.cells {
				best.cells = cells
				best.blocks = make([][]int, len(blocks))
				for b := range blocks {
					best.blocks[b] = append([]int(nil), blocks[b]...)
				}
				best.matchOf = matchOf
			}
			return
		}
		for b := range blocks {
			if !(loads[b]+items[k].load < capTh) {
				continue
			}
			ok := true
			for _, m := range blocks[b] {
				if !feas[m][k] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			blocks[b] = append(blocks[b], k)
			loads[b] += items[k].load
			recurse(k + 1)
			loads[b] -= items[k].load
			blocks[b] = blocks[b][:len(blocks[b])-1]
		}
		blocks = append(blocks, []int{k})
		loads = append(loads, items[k].load)
		recurse(k + 1)
		blocks = blocks[:len(blocks)-1]
		loads = loads[:len(loads)-1]
	}
	recurse(0)
	return best
}

// matchFFs computes a maximum bipartite matching of eligible flip-flops
// onto blocks (Kuhn's augmenting paths). A flip-flop may cover a block when
// it is pairwise-feasible with every member and the block's accumulated
// load fits cap_th (the merge that attaches the flip-flop re-checks the
// budget even for singleton blocks).
func matchFFs(blocks [][]int, loads []float64, ffFeas [][]bool, capTh float64) (int, []int) {
	cand := make([][]int, len(blocks))
	for b := range blocks {
		if !(loads[b] < capTh) {
			continue
		}
		for f := range ffFeas {
			ok := true
			for _, m := range blocks[b] {
				if !ffFeas[f][m] {
					ok = false
					break
				}
			}
			if ok {
				cand[b] = append(cand[b], f)
			}
		}
	}
	matchOf := make([]int, len(blocks))
	for b := range matchOf {
		matchOf[b] = -1
	}
	ffOf := make(map[int]int) // flip-flop index -> block index
	var try func(b int, seen map[int]bool) bool
	try = func(b int, seen map[int]bool) bool {
		for _, f := range cand[b] {
			if seen[f] {
				continue
			}
			seen[f] = true
			if prev, taken := ffOf[f]; !taken || try(prev, seen) {
				ffOf[f] = b
				matchOf[b] = f
				return true
			}
		}
		return false
	}
	matched := 0
	for b := range blocks {
		if try(b, make(map[int]bool)) {
			matched++
		}
	}
	return matched, matchOf
}

// oracleTapCostPS mirrors the optimizer's functional tap cost.
func oracleTapCostPS(n *netlist.Netlist, lib *cells.Library, opts wcm.Options, sig netlist.SignalID) float64 {
	if opts.Timing != wcm.TimingCapWire {
		return 0
	}
	xor := lib.Of(netlist.GateXor)
	drive := lib.Of(n.TypeOf(sig)).DriveResKOhm
	return drive * (xor.InputCapFF + lib.DriverWireCapFF(lib.TestBufferDistUM))
}

// oracleFFEligible mirrors the optimizer's per-flip-flop timing admission.
func oracleFFEligible(in wcm.Input, opts wcm.Options, inbound bool, ff netlist.SignalID) bool {
	if opts.Timing != wcm.TimingCapWire {
		return true
	}
	lib := in.Lib
	if inbound {
		r := lib.Of(netlist.GateDFF).DriveResKOhm
		deltaPS := r * (lib.DriverWireCapFF(lib.TestBufferDistUM) + lib.Of(netlist.GateMux2).InputCapFF)
		return deltaPS <= opts.SlackSpendFrac*in.Timing.SlackPS(ff)
	}
	d := in.Netlist.Gate(ff).Fanin[0]
	mux := lib.Of(netlist.GateMux2)
	muxDelay := mux.IntrinsicPS + mux.DriveResKOhm*lib.Of(netlist.GateDFF).InputCapFF
	return muxDelay <= in.Timing.SlackPS(d)-opts.SlackThPS
}
