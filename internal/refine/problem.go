package refine

import (
	"fmt"

	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcm"
)

// bitset is a fixed-width bit vector over item indices of one phase. The
// solver keeps one per item (its adjacency row) and one per block (its
// membership), so feasibility tests are word-parallel.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// covers reports o ⊆ b.
func (b bitset) covers(o bitset) bool {
	for w := range o {
		if o[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

func (b bitset) clone() bitset { return append(bitset(nil), b...) }

// Problem is the refinement search space: the exported sharing model of a
// die (wcm.BuildShareModel) reindexed for fast moves — per-phase adjacency
// bitsets, a global flip-flop table spanning both phases, and the fixed
// cost floor of the excluded (dedicated-cell) TSVs.
type Problem struct {
	in   wcm.Input
	opts wcm.Options // effective configuration (WithDefaults applied)

	model  *wcm.ShareModel
	phases [2]*phaseIndex

	// ffSigs is the global flip-flop table: phases index into it so one
	// reuse per flip-flop across the whole plan is a matching constraint.
	ffSigs []netlist.SignalID

	// ffHomes lists, per global flip-flop, every (phase, local index)
	// that can use it — the reverse of ffIndex.global. The evaluator's
	// re-seat walks it to find the exposed blocks a freed flip-flop
	// covers directly.
	ffHomes [][]ffHome

	// fixedCells counts the dedicated cells no solution can avoid (both
	// phases' excluded TSVs).
	fixedCells int

	// lowerBound is the capacity bound: no solution of this problem
	// costs fewer cells (see capacityBound).
	lowerBound int

	// greedyBuffered echoes the greedy plan's BufferedRouting so encoded
	// candidates claim the same routing contract.
	greedyBuffered bool
}

// phaseIndex is one phase's sharing problem in solver form.
type phaseIndex struct {
	sp *wcm.SharePhase
	n  int // admitted items

	// adj[i] is item i's adjacency row; a block is feasible iff every
	// member's row covers the block mask.
	adj []bitset

	// maxLen is the largest member count a block can hold under the
	// accumulated-load budget (k·ItemLoadFF < CapThFF).
	maxLen int

	// ffs are the reuse candidates of this phase; itemFFs[i] lists the
	// local flip-flop indices adjacent to item i (candidate generation).
	ffs     []ffIndex
	itemFFs [][]int32
}

type ffIndex struct {
	global int32  // index into Problem.ffSigs
	adj    bitset // items the flip-flop may share a group with
	// items lists adj's set bits ascending (the share model's FF adjacency
	// list, referenced, not copied). The evaluator's re-seat walks it to
	// enumerate candidate blocks through its item→block index instead of
	// scanning every block of the phase.
	items []int32
}

// ffHome locates one phase-local incarnation of a global flip-flop.
type ffHome struct {
	pi int8
	fi int32
}

// newProblem indexes a share model for the solvers.
func newProblem(in wcm.Input, opts wcm.Options, model *wcm.ShareModel, greedy *wcm.Result) (*Problem, error) {
	p := &Problem{
		in:             in,
		opts:           opts,
		model:          model,
		greedyBuffered: greedy.Assignment.BufferedRouting,
	}
	ffGlobal := make(map[netlist.SignalID]int32)
	for pi, sp := range model.Phases {
		ph := &phaseIndex{sp: sp, n: len(sp.Items)}
		ph.adj = make([]bitset, ph.n)
		for i := 0; i < ph.n; i++ {
			row := newBitset(ph.n)
			for _, j := range sp.ItemAdj[i] {
				row.set(j)
			}
			ph.adj[i] = row
		}
		ph.maxLen = ph.n
		if sp.ItemLoadFF > 0 {
			k := 0
			for float64(k+1)*sp.ItemLoadFF < sp.CapThFF && k < ph.n {
				k++
			}
			ph.maxLen = k
		}
		if ph.maxLen < 1 {
			ph.maxLen = 1 // singletons always stand: greedy emits them too
		}
		ph.itemFFs = make([][]int32, ph.n)
		for fi, ff := range sp.FFs {
			g, ok := ffGlobal[ff.Sig]
			if !ok {
				g = int32(len(p.ffSigs))
				ffGlobal[ff.Sig] = g
				p.ffSigs = append(p.ffSigs, ff.Sig)
			}
			mask := newBitset(ph.n)
			for _, j := range ff.Adj {
				mask.set(j)
				ph.itemFFs[j] = append(ph.itemFFs[j], int32(fi))
			}
			ph.ffs = append(ph.ffs, ffIndex{global: g, adj: mask, items: ff.Adj})
			for int(g) >= len(p.ffHomes) {
				p.ffHomes = append(p.ffHomes, nil)
			}
			p.ffHomes[g] = append(p.ffHomes[g], ffHome{pi: int8(pi), fi: int32(fi)})
		}
		p.fixedCells += len(sp.Excluded)
		p.phases[pi] = ph
	}
	p.lowerBound = p.capacityBound()
	return p, nil
}

// capacityBound is a lower bound on the cells of every solution. A block
// holds at most maxLen items, and a block with a flip-flop holds only items
// adjacent to it, so with M_p matched blocks in phase p at most
// min(maxLen·M_p, A_p) items sit in matched blocks (A_p: the items adjacent
// to at least one flip-flop) and the rest fill at least
// ⌈(n_p − that)/maxLen⌉ exposed blocks. Each global flip-flop serves one
// block across both phases, so the bound is the minimum over the splits
// M_0 + M_1 ≤ len(ffSigs) with M_p ≤ the phase's flip-flops, plus the
// excluded TSVs' fixed cells.
func (p *Problem) capacityBound() int {
	var adjacent [2]int
	for pi, ph := range p.phases {
		for _, ffs := range ph.itemFFs {
			if len(ffs) > 0 {
				adjacent[pi]++
			}
		}
	}
	exposed := func(pi, m int) int {
		ph := p.phases[pi]
		rest := ph.n - min(ph.maxLen*m, adjacent[pi])
		return (max(rest, 0) + ph.maxLen - 1) / ph.maxLen
	}
	ffs := len(p.ffSigs)
	best := exposed(0, 0) + exposed(1, 0)
	for m0 := 0; m0 <= min(len(p.phases[0].ffs), ffs); m0++ {
		m1 := min(len(p.phases[1].ffs), ffs-m0)
		best = min(best, exposed(0, m0)+exposed(1, m1))
	}
	return p.fixedCells + best
}

// block is one shared group of a candidate plan.
type block struct {
	members []int32 // item indices, insertion order
	mask    bitset
	ff      int32 // phase-local flip-flop index, -1 when unassigned
}

// Solution is a candidate plan over a Problem: a partition of each phase's
// admitted items into pairwise-adjacent blocks, plus a flip-flop matching
// (at most one block per flip-flop across both phases). The excluded TSVs
// are implicit — every solution pays for them.
type Solution struct {
	blocks [2][]block
	// ffUsed marks global flip-flop indices consumed by the matching.
	ffUsed bitset
}

func (s *Solution) clone() *Solution {
	c := &Solution{ffUsed: s.ffUsed.clone()}
	for pi := range s.blocks {
		c.blocks[pi] = make([]block, len(s.blocks[pi]))
		for bi, b := range s.blocks[pi] {
			c.blocks[pi][bi] = block{
				members: append([]int32(nil), b.members...),
				mask:    b.mask.clone(),
				ff:      b.ff,
			}
		}
	}
	return c
}

// cells is the objective: dedicated wrapper cells the plan inserts.
func (s *Solution) cells(p *Problem) int {
	n := p.fixedCells
	for pi := range s.blocks {
		for bi := range s.blocks[pi] {
			if s.blocks[pi][bi].ff < 0 {
				n++
			}
		}
	}
	return n
}

// canJoin reports whether item i may enter block b of phase ph: the block
// has room and i is adjacent to every member. Small blocks are checked
// member-by-member — a word scan over the mask cannot early-exit on the
// mask's zero words, so for typical block sizes the per-member probe is
// both shorter and fail-fast.
func (ph *phaseIndex) canJoin(b *block, i int32) bool {
	if len(b.members) >= ph.maxLen {
		return false
	}
	row := ph.adj[i]
	if len(b.members) < len(b.mask) {
		for _, m := range b.members {
			if !row.has(m) {
				return false
			}
		}
		return true
	}
	return row.covers(b.mask)
}

// canMerge reports whether two blocks may fuse: combined size fits and
// every cross pair is adjacent.
func (ph *phaseIndex) canMerge(a, b *block) bool {
	if len(a.members)+len(b.members) > ph.maxLen {
		return false
	}
	// Every member of the smaller block must be adjacent to all of the
	// larger's — adjacency is symmetric, so one direction suffices.
	small, large := a, b
	if len(b.members) < len(a.members) {
		small, large = b, a
	}
	for _, m := range small.members {
		if !ph.adj[m].covers(large.mask) {
			return false
		}
	}
	return true
}

// ffCoversAlso reports whether flip-flop fi, already known to cover some
// block, also covers every member of b — i.e. whether it would cover the
// two blocks' union.
func (ph *phaseIndex) ffCoversAlso(fi int32, b *block) bool {
	adj := ph.ffs[fi].adj
	for _, m := range b.members {
		if !adj.has(m) {
			return false
		}
	}
	return true
}

// ffCovers reports whether phase-local flip-flop fi may serve block b.
// This sits on the matching repair's hottest path (the re-seat and the
// forward searches probe it for every candidate block), so small blocks
// take the fail-fast per-member probe instead of the full-width mask scan.
func (ph *phaseIndex) ffCovers(fi int32, b *block) bool {
	adj := ph.ffs[fi].adj
	if len(b.members) < len(b.mask) {
		for _, m := range b.members {
			if !adj.has(m) {
				return false
			}
		}
		return true
	}
	return adj.covers(b.mask)
}

// decodeGreedy maps the greedy plan onto the model: every shared group
// becomes a block, excluded TSVs are recognized and dropped (they are the
// implicit cost floor), and reused flip-flops seed the matching. A greedy
// clique is always pairwise-adjacent in the initial sharing graph (merges
// intersect neighborhoods), so the decode is structural, not a re-check —
// but it still validates against the model and errors on any mismatch so
// the caller can fall back to the greedy plan untouched.
func decodeGreedy(p *Problem, greedy *wcm.Result) (*Solution, error) {
	s := &Solution{ffUsed: newBitset(len(p.ffSigs))}
	for pi, ph := range p.phases {
		sp := ph.sp
		itemOf := make(map[wcm.ShareItem]int32, ph.n)
		for i, it := range sp.Items {
			itemOf[it] = int32(i)
		}
		excluded := make(map[wcm.ShareItem]bool, len(sp.Excluded))
		for _, it := range sp.Excluded {
			excluded[it] = true
		}
		ffLocal := make(map[netlist.SignalID]int32, len(sp.FFs))
		for fi, ff := range sp.FFs {
			ffLocal[ff.Sig] = int32(fi)
		}
		addGroup := func(where string, ffSig netlist.SignalID, items []wcm.ShareItem) error {
			b := block{mask: newBitset(ph.n), ff: -1}
			for _, it := range items {
				i, ok := itemOf[it]
				if !ok {
					if excluded[it] && len(items) == 1 && ffSig == netlist.InvalidSignal {
						return nil // dedicated cell for an excluded TSV: implicit
					}
					return fmt.Errorf("refine: %s: TSV not in share model", where)
				}
				b.members = append(b.members, i)
				b.mask.set(i)
			}
			if ffSig != netlist.InvalidSignal {
				fi, ok := ffLocal[ffSig]
				if !ok {
					return fmt.Errorf("refine: %s: reused FF not in share model", where)
				}
				g := p.phases[pi].ffs[fi].global
				if s.ffUsed.has(g) {
					return fmt.Errorf("refine: %s: FF reused twice", where)
				}
				b.ff = fi
				s.ffUsed.set(g)
			}
			s.blocks[pi] = append(s.blocks[pi], b)
			return nil
		}
		if sp.Inbound {
			for gi, g := range greedy.Assignment.Control {
				items := make([]wcm.ShareItem, 0, len(g.TSVs))
				for _, t := range g.TSVs {
					items = append(items, wcm.ShareItem{Sig: t, Port: -1})
				}
				if err := addGroup(fmt.Sprintf("control[%d]", gi), g.ReusedFF, items); err != nil {
					return nil, err
				}
			}
		} else {
			n := p.in.Netlist
			for gi, g := range greedy.Assignment.Observe {
				items := make([]wcm.ShareItem, 0, len(g.Ports))
				for _, port := range g.Ports {
					items = append(items, wcm.ShareItem{Sig: n.Outputs[port].Signal, Port: port})
				}
				if err := addGroup(fmt.Sprintf("observe[%d]", gi), g.ReusedFF, items); err != nil {
					return nil, err
				}
			}
		}
		// Every admitted item must be covered exactly once.
		seen := newBitset(ph.n)
		total := 0
		for bi := range s.blocks[pi] {
			for _, m := range s.blocks[pi][bi].members {
				if seen.has(m) {
					return nil, fmt.Errorf("refine: phase %d: item covered twice", pi)
				}
				seen.set(m)
				total++
			}
		}
		if total != ph.n {
			return nil, fmt.Errorf("refine: phase %d: %d of %d items covered", pi, total, ph.n)
		}
	}
	return s, nil
}

// encode materializes a solution as a wrapper plan in internal/scan form.
func encode(p *Problem, s *Solution) *scan.Assignment {
	asn := &scan.Assignment{BufferedRouting: p.greedyBuffered}
	for pi, ph := range p.phases {
		sp := ph.sp
		emit := func(ffSig netlist.SignalID, items []wcm.ShareItem) {
			if sp.Inbound {
				g := scan.ControlGroup{ReusedFF: ffSig}
				for _, it := range items {
					g.TSVs = append(g.TSVs, it.Sig)
				}
				asn.Control = append(asn.Control, g)
			} else {
				g := scan.ObserveGroup{ReusedFF: ffSig}
				for _, it := range items {
					g.Ports = append(g.Ports, it.Port)
				}
				asn.Observe = append(asn.Observe, g)
			}
		}
		for bi := range s.blocks[pi] {
			b := &s.blocks[pi][bi]
			ffSig := netlist.InvalidSignal
			if b.ff >= 0 {
				ffSig = sp.FFs[b.ff].Sig
			}
			items := make([]wcm.ShareItem, 0, len(b.members))
			for _, m := range b.members {
				items = append(items, sp.Items[m])
			}
			emit(ffSig, items)
		}
		for _, it := range sp.Excluded {
			emit(netlist.InvalidSignal, []wcm.ShareItem{it})
		}
	}
	return asn
}
