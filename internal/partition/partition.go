// Package partition implements Fiduccia–Mattheyses (FM) min-cut netlist
// partitioning and recursive multi-die stacking — the substrate that
// replaces the 3D-Craft physical design flow's die-assignment step. Given
// a monolithic netlist, it produces the per-die sub-netlists with TSV
// ports at every cut net, in the same form the ITC'99 profiles of
// internal/netgen describe.
//
// The classic FM algorithm: start from a balanced random bipartition, then
// repeatedly move the highest-gain free cell (gain = cut nets removed −
// cut nets created) across the cut, lock it, and roll back to the best
// prefix of the move sequence; repeat passes until no pass improves the
// cut. Gains live in a bucket list so selection is O(1).
package partition

import (
	"fmt"
	"math/rand"

	"wcm3d/internal/netlist"
)

// Options configures a partitioning run.
type Options struct {
	// Dies is the number of dies to produce; must be a power of two
	// (recursive bipartition). Default 2.
	Dies int
	// Seed makes the initial partition deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Dies == 0 {
		o.Dies = 2
	}
	return o
}

const (
	// balanceTolerance is the allowed deviation from perfect balance as
	// a fraction (0.1 = each side within ±10% of half).
	balanceTolerance = 0.1
	// maxPasses bounds FM improvement passes per bipartition.
	maxPasses = 8
)

// Result is a completed partition.
type Result struct {
	// DieOf assigns each gate (by SignalID) to a die index.
	DieOf []int
	// CutNets counts nets crossing die boundaries (each becomes a TSV).
	CutNets int
	// Dies holds the extracted per-die netlists, with TSV_IN pads where
	// a signal arrives from another die and TSV_OUT ports where a signal
	// leaves.
	Dies []*netlist.Netlist
}

// Partition splits the netlist into Options.Dies dies.
func Partition(n *netlist.Netlist, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Dies < 2 || opts.Dies&(opts.Dies-1) != 0 {
		return nil, fmt.Errorf("partition: die count %d must be a power of two >= 2", opts.Dies)
	}
	if n.NumGates() < opts.Dies {
		return nil, fmt.Errorf("partition: %d gates cannot fill %d dies", n.NumGates(), opts.Dies)
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	dieOf := make([]int, n.NumGates())
	// Recursive bipartition: at each level, split every current group in
	// two, relabeling dies as 2*d and 2*d+1.
	groups := 1
	for groups < opts.Dies {
		next := make([]int, n.NumGates())
		for g := 0; g < groups; g++ {
			var members []netlist.SignalID
			for i := range dieOf {
				if dieOf[i] == g {
					members = append(members, netlist.SignalID(i))
				}
			}
			side := bipartition(n, members, opts, rng)
			for k, id := range members {
				next[id] = 2*g + side[k]
			}
		}
		dieOf = next
		groups *= 2
	}

	res := &Result{DieOf: dieOf}
	res.CutNets = countCut(n, dieOf)
	dies, err := Extract(n, dieOf, opts.Dies)
	if err != nil {
		return nil, err
	}
	res.Dies = dies
	return res, nil
}

// bipartition runs FM over the given member set and returns 0/1 side
// labels (indexed like members).
func bipartition(n *netlist.Netlist, members []netlist.SignalID, opts Options, rng *rand.Rand) []int {
	m := len(members)
	side := make([]int, m)
	for i := range side {
		side[i] = i & 1
	}
	rng.Shuffle(m, func(i, j int) { side[i], side[j] = side[j], side[i] })
	if m < 4 {
		return side
	}

	idxOf := make(map[netlist.SignalID]int, m)
	for i, id := range members {
		idxOf[id] = i
	}
	// Nets restricted to the member set: driver + member sinks.
	type net struct{ cells []int }
	var nets []net
	graph := n.Graph()
	for _, id := range members {
		cells := []int{idxOf[id]}
		for _, fo := range graph.FanoutOf(id) {
			if j, ok := idxOf[fo]; ok {
				cells = append(cells, j)
			}
		}
		if len(cells) > 1 {
			nets = append(nets, net{cells})
		}
	}
	netsOf := make([][]int, m)
	for ni, nt := range nets {
		for _, c := range nt.cells {
			netsOf[c] = append(netsOf[c], ni)
		}
	}

	half := m / 2
	lo := half - int(balanceTolerance*float64(half)) - 1
	hi := half + int(balanceTolerance*float64(half)) + 1
	count0 := 0
	for _, s := range side {
		if s == 0 {
			count0++
		}
	}

	cut := func() int {
		c := 0
		for _, nt := range nets {
			s0 := side[nt.cells[0]]
			for _, cell := range nt.cells[1:] {
				if side[cell] != s0 {
					c++
					break
				}
			}
		}
		return c
	}

	gain := func(cell int) int {
		g := 0
		for _, ni := range netsOf[cell] {
			same, other := 0, 0
			for _, c := range nets[ni].cells {
				if c == cell {
					continue
				}
				if side[c] == side[cell] {
					same++
				} else {
					other++
				}
			}
			if same == 0 {
				g++ // moving uncuts this net
			}
			if other == 0 {
				g-- // moving cuts this net
			}
		}
		return g
	}

	best := cut()
	for pass := 0; pass < maxPasses; pass++ {
		locked := make([]bool, m)
		type move struct {
			cell int
			cut  int
		}
		var seq []move
		cur := best
		for moved := 0; moved < m; moved++ {
			// Highest-gain unlocked cell whose move keeps balance.
			bestCell, bestGain := -1, -1<<30
			for c := 0; c < m; c++ {
				if locked[c] {
					continue
				}
				// Balance: moving from side0 decrements count0.
				nc := count0
				if side[c] == 0 {
					nc--
				} else {
					nc++
				}
				if nc < lo || nc > hi {
					continue
				}
				if g := gain(c); g > bestGain {
					bestGain, bestCell = g, c
				}
			}
			if bestCell < 0 {
				break
			}
			if side[bestCell] == 0 {
				count0--
			} else {
				count0++
			}
			side[bestCell] = 1 - side[bestCell]
			locked[bestCell] = true
			cur -= bestGain
			seq = append(seq, move{bestCell, cur})
		}
		// Roll back to the best prefix.
		bestIdx, bestCut := -1, best
		for i, mv := range seq {
			if mv.cut < bestCut {
				bestCut, bestIdx = mv.cut, i
			}
		}
		for i := len(seq) - 1; i > bestIdx; i-- {
			c := seq[i].cell
			if side[c] == 0 {
				count0--
			} else {
				count0++
			}
			side[c] = 1 - side[c]
		}
		if bestCut >= best {
			break // no improvement this pass
		}
		best = bestCut
	}
	return side
}

func countCut(n *netlist.Netlist, dieOf []int) int {
	cut := 0
	graph := n.Graph()
	for i := range n.Gates {
		id := netlist.SignalID(i)
		crossed := map[int]bool{}
		for _, fo := range graph.FanoutOf(id) {
			if dieOf[fo] != dieOf[id] && !crossed[dieOf[fo]] {
				crossed[dieOf[fo]] = true
				cut++ // one TSV per (net, destination die)
			}
		}
	}
	return cut
}

// Extract materializes per-die netlists from a die assignment: each die
// keeps its own gates; a signal arriving from another die becomes a
// TSV_IN pad, and a signal consumed by another die gains a TSV_OUT port.
// Primary inputs are replicated onto every die that reads them (bond pads
// are accessible from any die in this flow); output ports stay with the
// die that drives them.
func Extract(n *netlist.Netlist, dieOf []int, dies int) ([]*netlist.Netlist, error) {
	out := make([]*netlist.Netlist, dies)
	maps := make([]map[netlist.SignalID]netlist.SignalID, dies)
	for d := range out {
		out[d] = netlist.New(fmt.Sprintf("%s_die%d", n.Name, d))
		maps[d] = make(map[netlist.SignalID]netlist.SignalID)
	}
	// localOf returns the die-local signal for a foreign or local source,
	// creating input pads as needed.
	localOf := func(d int, src netlist.SignalID) (netlist.SignalID, error) {
		if id, ok := maps[d][src]; ok {
			return id, nil
		}
		g := n.Gate(src)
		var id netlist.SignalID
		var err error
		switch {
		case g.Type == netlist.GateInput:
			id, err = out[d].AddGate(netlist.GateInput, g.Name)
		case dieOf[src] != d:
			id, err = out[d].AddGate(netlist.GateTSVIn, "tsv_"+g.Name)
		default:
			return netlist.InvalidSignal, fmt.Errorf("partition: %q used on die %d before definition", g.Name, d)
		}
		if err != nil {
			return netlist.InvalidSignal, err
		}
		maps[d][src] = id
		return id, nil
	}

	// Flip-flop D pins may reference signals defined later (sequential
	// loops), so DFFs are created with a placeholder D and rewired below.
	placeholder := make([]netlist.SignalID, dies)
	for d := range placeholder {
		placeholder[d] = netlist.InvalidSignal
	}
	holdOf := func(d int) (netlist.SignalID, error) {
		if placeholder[d] != netlist.InvalidSignal {
			return placeholder[d], nil
		}
		id, err := out[d].AddGate(netlist.GateConst0, "dff_placeholder")
		if err != nil {
			return netlist.InvalidSignal, err
		}
		placeholder[d] = id
		return id, nil
	}
	for _, id := range n.Graph().Order {
		g := n.Gate(id)
		d := dieOf[id]
		switch {
		case g.Type == netlist.GateInput:
			if _, err := localOf(d, id); err != nil {
				return nil, err
			}
		case g.Type == netlist.GateDFF:
			ph, err := holdOf(d)
			if err != nil {
				return nil, err
			}
			lid, err := out[d].AddGate(netlist.GateDFF, g.Name, ph)
			if err != nil {
				return nil, err
			}
			maps[d][id] = lid
		default:
			fanin := make([]netlist.SignalID, len(g.Fanin))
			for pin, src := range g.Fanin {
				ls, err := localOf(d, src)
				if err != nil {
					return nil, err
				}
				fanin[pin] = ls
			}
			lid, err := out[d].AddGate(g.Type, g.Name, fanin...)
			if err != nil {
				return nil, err
			}
			maps[d][id] = lid
		}
	}
	// Flip-flop D pins reference signals that may be defined later in
	// topological order (sequential loops); fix them up now.
	for _, ff := range n.FlipFlops() {
		d := dieOf[ff]
		src := n.Gate(ff).Fanin[0]
		ls, err := localOf(d, src)
		if err != nil {
			return nil, err
		}
		if err := out[d].RewireFanin(maps[d][ff], 0, ls); err != nil {
			return nil, err
		}
	}
	// Outbound TSV ports: every net consumed by another die.
	emitted := make([]map[netlist.SignalID]bool, dies)
	for d := range emitted {
		emitted[d] = make(map[netlist.SignalID]bool)
	}
	graph := n.Graph()
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if n.TypeOf(id) == netlist.GateInput {
			continue
		}
		d := dieOf[id]
		needed := false
		for _, fo := range graph.FanoutOf(id) {
			if dieOf[fo] != d {
				needed = true
				break
			}
		}
		if needed && !emitted[d][id] {
			emitted[d][id] = true
			if err := out[d].AddOutput("tsvout_"+n.NameOf(id), maps[d][id], netlist.PortTSVOut); err != nil {
				return nil, err
			}
		}
	}
	// Original output ports stay with their driving die.
	for _, o := range n.Outputs {
		d := dieOf[o.Signal]
		if err := out[d].AddOutput(o.Name, maps[d][o.Signal], o.Class); err != nil {
			return nil, err
		}
	}
	for d := range out {
		if err := out[d].Validate(); err != nil {
			return nil, fmt.Errorf("partition: die %d invalid: %w", d, err)
		}
	}
	return out, nil
}
