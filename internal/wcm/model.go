package wcm

import (
	"fmt"

	"wcm3d/internal/netlist"
	"wcm3d/internal/sta"
)

// ShareModel is the two-phase sharing problem a WCM run partitions, exported
// as data: per phase, the TSV items admitted to the sharing graph (plus the
// ones excluded to dedicated cells), the pairwise edge-admissibility between
// items, and every flip-flop eligible for reuse with its per-item
// adjacency. The model is what the anytime refinement layer
// (internal/refine) searches over — a candidate plan is a partition of each
// phase's items into pairwise-adjacent blocks under the load budget, plus an
// assignment of flip-flops to blocks they are adjacent to.
//
// The model is built by the same Algorithm 1 machinery wcm.Run uses (cones,
// thresholds, node filters), so its edges are exactly the edges the greedy
// partitioner saw — with one deliberate difference: every eligible flip-flop
// appears in both phases' candidate lists. Cross-phase exclusivity (a
// flip-flop reused by phase one is gone for phase two) is a matching
// constraint for the consumer, not baked into the model.
type ShareModel struct {
	// Opts echoes the effective configuration (WithDefaults applied).
	Opts Options
	// Phases holds both sides in processing order (Phases[0] is the set
	// the configured OrderPolicy handles first).
	Phases [2]*SharePhase
}

// SharePhase is one TSV set's sharing problem.
type SharePhase struct {
	// Inbound reports which TSV set the phase covers.
	Inbound bool
	// Items are the TSVs admitted to the sharing graph.
	Items []ShareItem
	// Excluded are the TSVs the node filters routed to dedicated wrapper
	// cells; they are fixed singletons in every plan.
	Excluded []ShareItem
	// ItemAdj[i] lists the item indices j adjacent to item i (Algorithm
	// 1's edge conditions hold for the pair), sorted ascending. The
	// relation is symmetric and irreflexive.
	ItemAdj [][]int32
	// FFs are the flip-flops eligible for reuse in this phase, with their
	// item adjacency.
	FFs []ShareFF
	// ItemLoadFF is the uniform post-bond drive load one item adds to a
	// shared group (TSV pillar plus a mux or XOR pin).
	ItemLoadFF float64
	// CapThFF is the accumulated-load budget a shared group must stay
	// strictly under.
	CapThFF float64
}

// ShareItem identifies one TSV of a phase.
type ShareItem struct {
	// Sig is the pad signal (inbound) or the observed port's driving
	// signal (outbound).
	Sig netlist.SignalID
	// Port is the outbound port index, -1 on the inbound side.
	Port int
}

// ShareFF is one reuse-eligible flip-flop of a phase.
type ShareFF struct {
	// Sig is the flip-flop's signal.
	Sig netlist.SignalID
	// Adj lists the item indices the flip-flop may share a group with,
	// sorted ascending.
	Adj []int32
}

// BuildShareModel extracts the sharing problem wcm.Run would solve for the
// input. The first phase prices against in.Timing; the second against
// secondTiming when non-nil (callers with a RefreshTiming pipeline pass the
// analysis refreshed from the first phase's committed hardware), falling
// back to in.Timing. Every scan flip-flop is treated as available in both
// phases — consumers enforce one-reuse-per-flip-flop across the whole plan.
func BuildShareModel(in Input, opts Options, secondTiming *sta.Result) (*ShareModel, error) {
	opts = opts.withDefaults()
	if err := in.validate(opts); err != nil {
		return nil, err
	}
	m := &ShareModel{Opts: opts}
	timings := [2]*sta.Result{in.Timing, in.Timing}
	if secondTiming != nil {
		timings[1] = secondTiming
	}
	first := firstInbound(in.Netlist, opts.Order)
	for pi, inbound := range [2]bool{first, !first} {
		phIn := in
		phIn.Timing = timings[pi]
		sp, err := buildSharePhase(phIn, opts, inbound)
		if err != nil {
			return nil, err
		}
		m.Phases[pi] = sp
	}
	return m, nil
}

// buildSharePhase runs one phase's Algorithm 1 graph construction with every
// flip-flop available and reads the resulting graph back as plain data.
func buildSharePhase(in Input, opts Options, inbound bool) (*SharePhase, error) {
	n := in.Netlist
	available := make(map[netlist.SignalID]bool, len(n.FlipFlops()))
	for _, ff := range n.FlipFlops() {
		available[ff] = true
	}
	ph := &phaseRunner{in: in, opts: opts, inbound: inbound, available: available}
	var stats PhaseStats
	items, excluded, err := ph.buildGraph(&stats)
	if err != nil {
		return nil, err
	}
	sp := &SharePhase{Inbound: inbound, ItemLoadFF: itemLoadFF(in.Lib, inbound), CapThFF: opts.CapThFF}
	itemOf := func(i int) ShareItem {
		it := ShareItem{Sig: ph.tsvSignals[i], Port: -1}
		if !inbound {
			it.Port = ph.tsvPorts[i]
		}
		return it
	}
	for _, i := range items {
		sp.Items = append(sp.Items, itemOf(i))
	}
	for _, i := range excluded {
		sp.Excluded = append(sp.Excluded, itemOf(i))
	}
	// Graph node ids: items in admission order first, then flip-flops (the
	// AddNode order of buildGraph).
	nItems := len(items)
	sp.ItemAdj = make([][]int32, nItems)
	for id := 0; id < nItems; id++ {
		ph.graph.Neighbors(id, func(nb int) {
			if nb < nItems {
				sp.ItemAdj[id] = append(sp.ItemAdj[id], int32(nb))
			}
		})
	}
	for id := nItems; id < ph.graph.NumAlive(); id++ {
		node := ph.graph.Node(id)
		if !node.HasFF {
			return nil, fmt.Errorf("wcm: share model: node %d past the item range is not a flip-flop", id)
		}
		ff := ShareFF{Sig: netlist.SignalID(node.FF)}
		ph.graph.Neighbors(id, func(nb int) {
			if nb < nItems {
				ff.Adj = append(ff.Adj, int32(nb))
			}
		})
		sp.FFs = append(sp.FFs, ff)
	}
	return sp, nil
}
