package refine

import (
	"context"
	"math/rand"
)

// localSearch is the deterministic strategy: first-improvement descent over
// three sweeps — candidate-list block merges, single-item relocations, and
// split-and-remerge kicks — every trial scored by the incremental evaluator
// and reverted through its journal unless it strictly lowers the cell
// count. When the descent bottoms out, the restart schedule perturbs the
// strategy's own best with a few seeded random moves and descends again;
// a round that fails to beat that best reverts wholesale, and after
// localFruitlessRounds consecutive failures the strategy stops. For a
// fixed (seed, step budget) the trajectory is a pure function of the
// sweep order — the wall deadline can only truncate it.
type localSearch struct{}

func (localSearch) Name() string { return "local" }

// localFruitlessRounds is the restart schedule's give-up cutoff: stop
// after this many consecutive perturb-and-descend rounds that fail to
// improve the strategy's own best.
const localFruitlessRounds = 2

// restartSeedStride separates the RNG streams of restart rounds (and the
// annealer's reheat segments): round r draws from Seed + r·stride.
const restartSeedStride = 1000003

func (localSearch) Refine(ctx context.Context, p *Problem, start *Solution, o Options, emit func(*Solution)) (int, error) {
	e := newEvaluator(p, start.clone())
	e.crossCheck = o.CrossCheck
	d := &descender{ctx: ctx, p: p, e: e, maxSteps: o.maxSteps(unboundedSteps), incumbent: start.cells(p), emit: emit}
	if e.cells() < d.incumbent {
		// The greedy plan's flip-flop assignment was not a maximum
		// matching: augmenting paths alone already saved cells.
		d.incumbent = e.cells()
		emit(e.s)
	}
	fruitless := 0
	for round := 0; fruitless < localFruitlessRounds && !d.done(); round++ {
		d.cur = e.cells()
		d.roundBest = d.cur
		d.committed = false
		m := e.mark()
		if round > 0 {
			d.perturb(rand.New(rand.NewSource(o.Seed+int64(round)*restartSeedStride)), 3+round%4)
		}
		d.descend()
		if d.committed {
			// The round beat the own best it started from; the journal
			// already reset at the moment it did.
			e.commit()
			fruitless = 0
		} else {
			e.revert(m)
			fruitless++
		}
	}
	return d.steps, ctx.Err()
}

// descender runs first-improvement descent over an evaluator. cur tracks
// the current cost (it rises during perturbation), roundBest the own-best
// cost this round must beat before any state is committed, incumbent the
// best cost this strategy ever emitted.
type descender struct {
	ctx      context.Context
	p        *Problem
	e        *evaluator
	maxSteps int

	steps      int
	cur        int
	roundBest  int
	committed  bool
	incumbent  int
	emit       func(*Solution)
	partnerBuf []int32
}

func (d *descender) done() bool {
	if d.steps >= d.maxSteps {
		return true
	}
	return d.steps%64 == 0 && d.ctx.Err() != nil
}

// try applies one move, keeps it when it strictly lowers the current cost
// (committing the journal once the round's own best is beaten, so a later
// round-level revert cannot roll back real progress), and reverts it
// otherwise.
func (d *descender) try(apply func()) bool {
	d.steps++
	m := d.e.mark()
	apply()
	c := d.e.cells()
	if c >= d.cur {
		d.e.revert(m)
		return false
	}
	d.cur = c
	if c < d.roundBest {
		d.roundBest = c
		d.e.commit()
		d.committed = true
	}
	if c < d.incumbent {
		d.incumbent = c
		d.emit(d.e.s)
	}
	return true
}

// perturb applies n random feasible moves regardless of cost, kicking the
// search off its local optimum; the round reverts wholesale if the
// following descent cannot recover.
func (d *descender) perturb(rng *rand.Rand, n int) {
	for applied, attempts := 0, 0; applied < n && attempts < n*20 && !d.done(); attempts++ {
		if applyRandomMove(d.p, d.e, rng) {
			applied++
			d.steps++
		}
	}
	d.cur = d.e.cells()
}

func (d *descender) descend() {
	improved := true
	for improved && !d.done() {
		improved = false
		for pi := range d.e.s.blocks {
			if d.mergeSweep(pi) {
				improved = true
			}
		}
		for pi := range d.e.s.blocks {
			if d.relocateSweep(pi) {
				improved = true
			}
		}
		for pi := range d.e.s.blocks {
			if d.splitSweep(pi) {
				improved = true
			}
		}
	}
}

// smallPhaseFullSweep is the block count under which merge sweeps try all
// pairs instead of candidate lists. Overlap ranking exists to make sweeps
// affordable on b20-class phases (hundreds of blocks); on small phases it
// can bury the winning pair — merging two exposed blocks saves a cell at
// zero flip-flop overlap — below the top-k cut, and all-pairs in index
// order is cheap enough anyway.
const smallPhaseFullSweep = 140

// mergeSweep fuses compatible blocks: all pairs on small phases, each
// block's top-k candidate partners on large ones. Successful merges shift
// block indices, which makes the lists stale mid-pass; a stale entry
// merely points a trial at a different (still feasibility-checked, still
// exactly scored) pair, so the pass finishes on the stale lists and
// rebuilds them for the next.
func (d *descender) mergeSweep(pi int) bool {
	ph := d.p.phases[pi]
	blocks := &d.e.s.blocks[pi]
	improved := false
	// Exposed-pair pre-pass: fusing two uncovered blocks always saves one
	// cell (the block count drops, the matching is untouched), but those
	// pairs share no flip-flop cover, so the overlap ranking scores them
	// zero and the candidate lists bury them. Sweep them directly — the
	// pair count is quadratic only in the few exposed blocks, and canMerge
	// fails fast on the first non-adjacent member.
	for changed := true; changed && !d.done(); {
		changed = false
		for bi := 0; bi < len(*blocks) && !d.done(); bi++ {
			if (*blocks)[bi].ff >= 0 {
				continue
			}
			for bj := bi + 1; bj < len(*blocks); bj++ {
				if (*blocks)[bj].ff >= 0 || !ph.canMerge(&(*blocks)[bi], &(*blocks)[bj]) {
					continue
				}
				if d.try(func() { d.e.merge(pi, bi, bj) }) {
					changed, improved = true, true
					bj-- // swap-delete moved a new block into slot bj
				}
			}
		}
	}
	for pass := true; pass && !d.done(); {
		pass = false
		var cands [][]int32
		if len(*blocks) > smallPhaseFullSweep {
			cands = mergeCandidates(d.p, d.e.s, pi)
		}
		for bi := 0; bi < len(*blocks) && !d.done(); bi++ {
			partners := d.allPartners(len(*blocks))
			if cands != nil {
				if bi >= len(cands) {
					break
				}
				partners = cands[bi]
			}
			for _, bj32 := range partners {
				bj := int(bj32)
				if bj == bi || bj >= len(*blocks) || bi >= len(*blocks) {
					continue
				}
				if !ph.canMerge(&(*blocks)[bi], &(*blocks)[bj]) {
					continue
				}
				// A merge deletes bj and frees its flip-flop; it can only
				// lower the cell count if that flip-flop re-seats, or if
				// the union repair frees bi's flip-flop into a re-seat.
				// When the freed flip-flop provably cannot re-seat
				// (reachable is exact on the pre-move state) and the
				// second channel is closed — bi exposed, or its flip-flop
				// covering the union so the repair never runs — the trial
				// is skipped without paying the failing search. On
				// flip-flop-abundant dies those failing displacement
				// searches used to dominate the whole sweep.
				if bjf := (*blocks)[bj].ff; bjf >= 0 && !d.e.reachable(pi, bjf) {
					if bif := (*blocks)[bi].ff; bif < 0 || ph.ffCoversAlso(bif, &(*blocks)[bj]) {
						continue
					}
				}
				if d.try(func() { d.e.merge(pi, bi, bj) }) {
					pass, improved = true, true
					if bi >= len(*blocks) {
						break
					}
				}
			}
		}
	}
	return improved
}

// allPartners returns [0..n) as a reusable partner list for full sweeps;
// the caller skips bj == bi itself.
func (d *descender) allPartners(n int) []int32 {
	for len(d.partnerBuf) < n {
		d.partnerBuf = append(d.partnerBuf, int32(len(d.partnerBuf)))
	}
	return d.partnerBuf[:n]
}

// relocateSweep moves single items between blocks.
func (d *descender) relocateSweep(pi int) bool {
	ph := d.p.phases[pi]
	blocks := &d.e.s.blocks[pi]
	improved := false
	for bi := 0; bi < len(*blocks) && !d.done(); bi++ {
	rescan:
		for mi := 0; mi < len((*blocks)[bi].members); mi++ {
			b := &(*blocks)[bi]
			item := b.members[mi]
			// A relocation improves the cell count only through one of
			// two channels, both cheap to screen before paying a trial's
			// matching repair:
			//
			//   - a from-side gain: an augmenting path through the
			//     shrunken source. Its tail needs a fresh flip-flop edge
			//     (one not adjacent to the moved item — otherwise the
			//     graph is unchanged and the matching stays maximum);
			//     its head must re-seat the source's freed flip-flop on
			//     an exposed block, which the reachability set prices at
			//     the pre-move state. (A head may in principle route
			//     through the shrunken source over a second fresh edge
			//     and evade the pre-move set, but measurement on the
			//     b22 family puts successful heads at 2 in 14000 — the
			//     screen trades that sliver for not paying a failing
			//     displacement search per destination.) Screened once
			//     per item — it does not depend on the destination.
			//   - a to-side chain: the grown target's flip-flop stops
			//     covering, a replacement re-matches the target, and the
			//     displaced flip-flop re-seats on an exposed block. Needs
			//     the target flip-flop non-covering of the moved item
			//     and reachable.
			//
			// A matched singleton source additionally deletes its block
			// but frees its flip-flop, which costs a match unless that
			// flip-flop re-seats — if it cannot, only the to-side chain
			// can pay for it. An exposed multi-item source is screened on
			// the fresh tail alone: its gain is a forward augmentation,
			// which the head condition does not model.
			single := len(b.members) == 1
			fromGain := false
			if !single && (b.ff < 0 || d.e.reachable(pi, b.ff)) {
				for _, fi := range ph.itemFFs[b.members[(mi+1)%len(b.members)]] {
					adj := ph.ffs[fi].adj
					if adj.has(item) {
						continue
					}
					ok := true
					for _, m := range b.members {
						if m != item && !adj.has(m) {
							ok = false
							break
						}
					}
					if ok {
						fromGain = true
						break
					}
				}
			}
			stranded := single && b.ff >= 0 && !d.e.reachable(pi, b.ff)
			for to := 0; to < len(*blocks) && !d.done(); to++ {
				if to == bi || !ph.canJoin(&(*blocks)[to], item) {
					continue
				}
				if (!single && !fromGain) || stranded {
					// Improvement now requires the to-side chain.
					tf := (*blocks)[to].ff
					if tf < 0 || ph.ffs[tf].adj.has(item) || !d.e.reachable(pi, tf) {
						continue
					}
				}
				if d.try(func() { d.e.relocate(pi, bi, mi, to) }) {
					improved = true
					if bi >= len(*blocks) {
						break rescan // block dissolved
					}
					mi--
					continue rescan
				}
			}
		}
	}
	return improved
}

// splitSweep dissolves one block and first-fits its members into the
// remaining blocks — the escape hatch for the greedy partitioner's known
// failure mode, cliques merged so large no disjoint-cone flip-flop can
// attach.
func (d *descender) splitSweep(pi int) bool {
	blocks := &d.e.s.blocks[pi]
	improved := false
	for bi := 0; bi < len(*blocks) && !d.done(); bi++ {
		if len((*blocks)[bi].members) < 2 {
			continue
		}
		if d.try(func() { d.e.splitRemerge(pi, bi) }) {
			improved = true
			bi--
		}
	}
	return improved
}

// splitRemerge dissolves block bi into singletons, then first-fits each
// freed item's singleton back into a compatible block (including blocks
// formed from earlier freed items).
func (e *evaluator) splitRemerge(pi, bi int) {
	freed := append([]int32(nil), e.s.blocks[pi][bi].members[1:]...)
	freed = append(freed, e.s.blocks[pi][bi].members[0])
	e.dissolve(pi, bi)
	ph := e.p.phases[pi]
	for _, item := range freed {
		src := -1
		for sj := range e.s.blocks[pi] {
			b := &e.s.blocks[pi][sj]
			if len(b.members) == 1 && b.members[0] == item {
				src = sj
				break
			}
		}
		if src < 0 {
			continue // absorbed by an earlier first-fit
		}
		for to := range e.s.blocks[pi] {
			if to != src && ph.canMerge(&e.s.blocks[pi][to], &e.s.blocks[pi][src]) {
				e.merge(pi, to, src)
				break
			}
		}
	}
}
