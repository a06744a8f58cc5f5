package refine

// The incremental move evaluator. PR 6 scored every candidate move by
// cloning the whole solution and rerunning a full augmenting-path rematch
// (augmentAll) — O(blocks · tree) per trial, which on the b20–b22 family
// burned the entire wall budget inside the first merge sweep. The
// evaluator replaces that with in-place application, exact local matching
// repair, and journaled undo:
//
//   - Moves decompose into elementary graph changes, each with a provably
//     sufficient repair that restores a *maximum* matching:
//
//     delete a left vertex matched to g   → one re-seat of g
//     edges removed at block b (mask grew)
//     → release b's flip-flop if it stopped covering, forward augment
//     from b, then re-seat the freed flip-flop if still free
//     edges added at block b (mask shrank)
//     → release b's flip-flop unconditionally (an augmenting path may
//     now pass *through* b), forward augment from b, then re-seat
//     the freed flip-flop
//     new block → one forward augment from it
//
//     The arguments are exchange/Berge arguments over the bipartite
//     share graph: starting from a maximum matching, every augmenting
//     path created by one elementary change must start at the touched
//     block or end at the freed flip-flop, and Kuhn's persistence lemma
//     (a failed augment stays failed) lets each repair run one search
//     per endpoint (a re-seat: one direct scan, then forward searches
//     from the exposed blocks under one shared stamp). Each trial therefore costs a few
//     fail-fast alternating-tree walks instead of a full rematch.
//
//   - Every mutation (member moves, mask bits, flip-flop assignments,
//     owner entries, block swaps) is recorded in an undo journal; a
//     rejected move reverts bit-exactly, so delta cost equals the cost a
//     from-scratch rematch would report — the property test in
//     eval_test.go asserts exactly that on thousands of random moves, and
//     the crossCheck debug mode (Options.CrossCheck, or cmd/refine
//     -crosscheck) re-scores every applied move against the
//     PR 6 reference rematch at runtime.

import "fmt"

// Journal op kinds. Each record stores exactly what revert needs to undo
// one primitive mutation; revert replays records strictly in reverse, so
// block indices recorded here are valid again by the time they are used.
const (
	jFF         uint8 = iota // blocks[pi][a].ff was b: restore it
	jUsedSet                 // ffUsed bit a was set: clear it
	jUsedClear               // ffUsed bit a was cleared: set it
	jOwner                   // owner[a] was (phase b, block c): restore
	jPush                    // blocks[pi][a]: member c appended: pop it
	jTake                    // blocks[pi][a]: member c swap-removed from slot b: reinsert
	jExtend                  // blocks[pi][a].members had length b: truncate
	jMaskOr                  // blocks[pi][a].mask |= m (disjoint): andnot m
	jSwapRemove              // blocks[pi] swap-removed slot a: restore blk
	jAppend                  // block appended to blocks[pi]: pop it
	jItemBlock               // itemBlock[pi][a] was b: restore it
)

type jop struct {
	kind    uint8
	pi      int8
	a, b, c int32
	blk     block
	m       bitset
}

// evaluator owns a working solution and keeps its flip-flop matching
// maximum across in-place moves. All mutations must go through its
// methods; between moves the invariant holds that s is a valid partition
// with a maximum matching, and cells() prices it in O(1).
type evaluator struct {
	p *Problem
	s *Solution

	// ownerPhase/ownerBlock index the matching from the flip-flop side
	// (global flip-flop → owning block), kept persistent across moves.
	ownerPhase []int8
	ownerBlock []int32
	// itemBlock[pi][item] is the index of the block currently holding the
	// item, -1 while the item is mid-move (taken but not yet re-housed).
	// The re-seat's direct pass enumerates a freed flip-flop's
	// candidate blocks through it — a block is coverable only if it holds
	// at least one adjacent item — instead of scanning the whole phase.
	itemBlock [2][]int32
	// visited carries the per-search visit stamps of both tree searches.
	visited []int32
	stamp   int32

	nblocks int // blocks across both phases
	matched int // blocks holding a flip-flop

	// reach caches, per matching baseline, the set of global flip-flops
	// from which an exposed block is alternating-reachable — exactly the
	// set on which reseat() succeeds once the flip-flop is freed. Sweeps
	// consult it through reachable() to skip trials whose freed flip-flop
	// provably cannot re-seat (such a trial cannot lower the cell count),
	// turning the dominant failing re-seat searches on
	// flip-flop-abundant dies into O(1) lookups. Any matching mutation invalidates the cache;
	// reachGen lets revert restore validity only when no recompute
	// overwrote the set mid-trial.
	reach      bitset
	reachQ     []int32
	reachValid bool
	reachGen   int

	j          []jop
	journaling bool

	// crossCheck re-scores every applied move against the reference
	// from-scratch rematch (expensive; debug/property tests only).
	crossCheck bool
}

// evalMark is a point to revert to: journal length plus the scalar
// counters the journal does not cover.
type evalMark struct {
	jlen       int
	nblocks    int
	matched    int
	reachValid bool
	reachGen   int
}

// newEvaluator takes ownership of s, indexes its matching, and restores
// maximality (the decoded greedy matching need not be maximum).
func newEvaluator(p *Problem, s *Solution) *evaluator {
	e := &evaluator{
		p:          p,
		s:          s,
		ownerPhase: make([]int8, len(p.ffSigs)),
		ownerBlock: make([]int32, len(p.ffSigs)),
		visited:    make([]int32, len(p.ffSigs)),
	}
	for g := range e.ownerPhase {
		e.ownerPhase[g], e.ownerBlock[g] = -1, -1
	}
	for pi := range s.blocks {
		e.itemBlock[pi] = make([]int32, p.phases[pi].n)
		for i := range e.itemBlock[pi] {
			e.itemBlock[pi][i] = -1
		}
		for bi := range s.blocks[pi] {
			e.nblocks++
			for _, m := range s.blocks[pi][bi].members {
				e.itemBlock[pi][m] = int32(bi)
			}
			if fi := s.blocks[pi][bi].ff; fi >= 0 {
				g := p.phases[pi].ffs[fi].global
				e.ownerPhase[g], e.ownerBlock[g] = int8(pi), int32(bi)
				e.matched++
			}
		}
	}
	e.maximize()
	e.journaling = true
	return e
}

// cells prices the current solution: the fixed floor plus one dedicated
// cell per uncovered block.
func (e *evaluator) cells() int { return e.p.fixedCells + e.nblocks - e.matched }

func (e *evaluator) mark() evalMark {
	return evalMark{
		jlen: len(e.j), nblocks: e.nblocks, matched: e.matched,
		reachValid: e.reachValid, reachGen: e.reachGen,
	}
}

// commit forgets the undo history; outstanding marks become invalid.
func (e *evaluator) commit() { e.j = e.j[:0] }

// revert replays the journal backwards to the marked state. The restore is
// bit-exact: members, masks, flip-flop assignments, ffUsed bits, and owner
// entries all return to their pre-move values, so the matching is maximum
// again by construction.
func (e *evaluator) revert(m evalMark) {
	s := e.s
	for i := len(e.j) - 1; i >= m.jlen; i-- {
		op := &e.j[i]
		switch op.kind {
		case jFF:
			s.blocks[op.pi][op.a].ff = op.b
		case jUsedSet:
			s.ffUsed.clear(op.a)
		case jUsedClear:
			s.ffUsed.set(op.a)
		case jOwner:
			e.ownerPhase[op.a] = int8(op.b)
			e.ownerBlock[op.a] = op.c
		case jPush:
			b := &s.blocks[op.pi][op.a]
			b.members = b.members[:len(b.members)-1]
			b.mask.clear(op.c)
		case jTake:
			b := &s.blocks[op.pi][op.a]
			if int(op.b) == len(b.members) {
				b.members = append(b.members, op.c)
			} else {
				b.members = append(b.members, b.members[op.b])
				b.members[op.b] = op.c
			}
			b.mask.set(op.c)
		case jExtend:
			b := &s.blocks[op.pi][op.a]
			b.members = b.members[:op.b]
		case jMaskOr:
			mask := s.blocks[op.pi][op.a].mask
			for w := range op.m {
				mask[w] &^= op.m[w]
			}
		case jSwapRemove:
			blocks := s.blocks[op.pi]
			if int(op.a) == len(blocks) {
				s.blocks[op.pi] = append(blocks, op.blk)
			} else {
				s.blocks[op.pi] = append(blocks, blocks[op.a])
				s.blocks[op.pi][op.a] = op.blk
			}
		case jAppend:
			last := len(s.blocks[op.pi]) - 1
			s.blocks[op.pi][last] = block{}
			s.blocks[op.pi] = s.blocks[op.pi][:last]
		case jItemBlock:
			e.itemBlock[op.pi][op.a] = op.b
		}
	}
	e.j = e.j[:m.jlen]
	e.nblocks = m.nblocks
	e.matched = m.matched
	// The revert restored the matching bit-exactly, so the reachability
	// cache is valid again — unless a recompute overwrote it in between.
	e.reachValid = m.reachValid && e.reachGen == m.reachGen
}

func (e *evaluator) rec(op jop) {
	if e.journaling {
		e.j = append(e.j, op)
	}
}

// --- journaled matching primitives ---

func (e *evaluator) setFF(pi, bi int, fi int32) {
	b := &e.s.blocks[pi][bi]
	e.rec(jop{kind: jFF, pi: int8(pi), a: int32(bi), b: b.ff})
	b.ff = fi
}

func (e *evaluator) setOwner(g int32, pi int8, bi int32) {
	e.rec(jop{kind: jOwner, a: g, b: int32(e.ownerPhase[g]), c: e.ownerBlock[g]})
	e.ownerPhase[g], e.ownerBlock[g] = pi, bi
}

func (e *evaluator) setItemBlock(pi int, item, bi int32) {
	e.reachValid = false // membership changes coverage, hence reachability
	if old := e.itemBlock[pi][item]; old != bi {
		e.rec(jop{kind: jItemBlock, pi: int8(pi), a: item, b: old})
		e.itemBlock[pi][item] = bi
	}
}

// assign points block (pi, bi) at phase-local flip-flop fi. The block's
// previous flip-flop, if any, is left for the caller's augmenting chain to
// re-own (classic Kuhn flip order).
func (e *evaluator) assign(pi, bi int, fi int32) {
	g := e.p.phases[pi].ffs[fi].global
	e.reachValid = false
	if e.s.blocks[pi][bi].ff < 0 {
		e.matched++
	}
	e.setFF(pi, bi, fi)
	if !e.s.ffUsed.has(g) {
		e.rec(jop{kind: jUsedSet, a: g})
		e.s.ffUsed.set(g)
	}
	e.setOwner(g, int8(pi), int32(bi))
}

// release frees block (pi, bi)'s flip-flop, if any, and returns its global
// index (-1 when the block was exposed).
func (e *evaluator) release(pi, bi int) int32 {
	b := &e.s.blocks[pi][bi]
	if b.ff < 0 {
		return -1
	}
	g := e.p.phases[pi].ffs[b.ff].global
	e.reachValid = false
	e.setFF(pi, bi, -1)
	e.rec(jop{kind: jUsedClear, a: g})
	e.s.ffUsed.clear(g)
	e.setOwner(g, -1, -1)
	e.matched--
	return g
}

// --- tree searches ---

// augment searches an augmenting path from the exposed block (pi, bi)
// under the current visit stamp; on success every block along the path
// keeps a flip-flop and (pi, bi) gains one.
func (e *evaluator) augment(pi, bi int) bool {
	ph := e.p.phases[pi]
	b := &e.s.blocks[pi][bi]
	for _, fi := range ph.itemFFs[b.members[0]] {
		g := ph.ffs[fi].global
		if e.visited[g] == e.stamp {
			continue
		}
		if !ph.ffCovers(fi, b) {
			continue
		}
		e.visited[g] = e.stamp
		opi, obi := e.ownerPhase[g], e.ownerBlock[g]
		if obi < 0 || e.augment(int(opi), int(obi)) {
			e.assign(pi, bi, fi)
			return true
		}
	}
	return false
}

// reseat augments the matching once, if any augmenting path exists, after
// the flip-flop g was freed. Freed from a maximum matching, g ends every
// augmenting path (one that ends elsewhere was augmenting before), and
// one augmentation restores the maximum.
//
// The direct pass looks for an exposed block that g covers — the common
// repair outcome (the freed flip-flop snaps back to the very block that
// released it, or to a nearby exposed block) costs one scan. Candidate
// blocks are enumerated per home through whichever side is shorter: the
// flip-flop's adjacency list mapped through the item→block index (a
// coverable block holds only adjacent items, so each is reached through
// some item it holds — scarce-edge phases), or the phase's block list
// itself (abundant flip-flops whose adjacency dwarfs the block count).
// Blocks reached through several items are re-probed, but the fail-fast
// cover check keeps that cheap.
//
// Only when no exposed block can take g directly does the forward pass
// run: forward augments from the exposed blocks under one shared stamp (a
// failed search leaves the matching untouched, so its visited flip-flops
// stay dead for the next), stopping at the first success. Exposed blocks
// are few where flip-flops are abundant, and each forward search is
// pruned by the stamps of the ones before it, where a search backwards
// from g must try every matched block g covers.
func (e *evaluator) reseat(g int32) {
	for _, h := range e.p.ffHomes[g] {
		ph := e.p.phases[h.pi]
		blocks := e.s.blocks[h.pi]
		if items := ph.ffs[h.fi].items; len(items) < len(blocks) {
			ib := e.itemBlock[h.pi]
			for _, item := range items {
				bi := ib[item]
				if bi < 0 || blocks[bi].ff >= 0 {
					continue // mid-move item, or matched
				}
				if ph.ffCovers(h.fi, &blocks[bi]) {
					e.assign(int(h.pi), int(bi), h.fi)
					return
				}
			}
		} else {
			for bi := range blocks {
				if blocks[bi].ff < 0 && ph.ffCovers(h.fi, &blocks[bi]) {
					e.assign(int(h.pi), bi, h.fi)
					return
				}
			}
		}
	}
	e.stamp++
	for pi := range e.s.blocks {
		for bi := range e.s.blocks[pi] {
			if e.s.blocks[pi][bi].ff < 0 && e.augment(pi, bi) {
				return
			}
		}
	}
}

// reachable reports whether freeing phase pi's local flip-flop fi would
// let it re-seat — whether an augmenting path ending at its global index
// would exist, which is when reseat() succeeds. Sweeps call it *before*
// applying a move that frees the flip-flop: a trial whose freed flip-flop
// cannot re-seat loses one match for the one block it deletes and
// therefore cannot lower the cell count, so the sweep skips it without
// paying the failing search. Sound to consult the pre-move state because
// the move only deletes the flip-flop's own block, which no alternating
// path ending at that flip-flop can traverse (the block is matched to
// the path's own end).
func (e *evaluator) reachable(pi int, fi int32) bool {
	if !e.reachValid {
		e.recomputeReach()
	}
	return e.reach.has(e.p.phases[pi].ffs[fi].global)
}

// recomputeReach rebuilds the reachability set: a backward breadth-first
// search from every exposed block over alternating paths. Base: any
// flip-flop covering an exposed block re-seats directly. Step: once
// flip-flop og re-seats, its matched block can release it, so every
// flip-flop covering that block re-seats too. These are exactly the
// alternating paths from an exposed block that end at the flip-flop, so
// membership coincides with reseat()'s success once it is freed.
func (e *evaluator) recomputeReach() {
	if e.reach == nil {
		e.reach = newBitset(len(e.p.ffSigs))
	} else {
		for w := range e.reach {
			e.reach[w] = 0
		}
	}
	q := e.reachQ[:0]
	addCoverers := func(pi, bi int) {
		ph := e.p.phases[pi]
		b := &e.s.blocks[pi][bi]
		for _, fi := range ph.itemFFs[b.members[0]] {
			if g := ph.ffs[fi].global; !e.reach.has(g) && ph.ffCovers(fi, b) {
				e.reach.set(g)
				q = append(q, g)
			}
		}
	}
	for pi := range e.s.blocks {
		for bi := range e.s.blocks[pi] {
			if e.s.blocks[pi][bi].ff < 0 {
				addCoverers(pi, bi)
			}
		}
	}
	for qi := 0; qi < len(q); qi++ {
		og := q[qi]
		if obi := e.ownerBlock[og]; obi >= 0 {
			addCoverers(int(e.ownerPhase[og]), int(obi))
		}
	}
	e.reachQ = q[:0]
	e.reachValid = true
	e.reachGen++
}

// maximize restores maximality from any valid partial matching: shared
// visit stamps across consecutive failures, fresh stamp after each gain,
// repeated until a full clean pass (the standard Kuhn scan optimization —
// a failed shared-forest pass certifies no augmenting path remains).
func (e *evaluator) maximize() {
	for {
		e.stamp++
		progress := false
		for pi := range e.s.blocks {
			for bi := 0; bi < len(e.s.blocks[pi]); bi++ {
				if e.s.blocks[pi][bi].ff >= 0 {
					continue
				}
				if e.augment(pi, bi) {
					progress = true
					e.stamp++
				}
			}
		}
		if !progress {
			return
		}
	}
}

// --- elementary repairs ---

// repairGrown restores maximality after edges were removed at block
// (pi, bi) — its mask grew. If the flip-flop still covers, the matching is
// untouched and remains maximum (the graph only lost edges). Otherwise the
// block's flip-flop is released; a forward augment from the block restores
// the old matching size, which the graph can no longer exceed, and only
// when it fails does the freed flip-flop need a re-seat.
func (e *evaluator) repairGrown(pi, bi int) {
	b := &e.s.blocks[pi][bi]
	if b.ff < 0 {
		return
	}
	ph := e.p.phases[pi]
	if ph.ffCovers(b.ff, b) {
		return
	}
	g := e.release(pi, bi)
	e.stamp++
	if !e.augment(pi, bi) {
		e.reseat(g)
	}
}

// repairShrunk restores maximality after item `removed` left block
// (pi, bi) — its mask shrank, so the block may have gained flip-flop
// edges. The fast path prices the common case for free: an edge is new
// only if its flip-flop covers the shrunken block but was not adjacent
// to the removed item (otherwise it covered the old block too), and if
// no candidate qualifies the graph is unchanged and the matching is
// still maximum — no search runs, nothing is mutated.
//
// With a new edge present, a new augmenting path may pass *through* the
// block (head: some exposed block alternates to the block's freed
// flip-flop; tail: the block alternates to a free flip-flop over a new
// edge). The block's flip-flop is released and the forward search
// *excludes* it — a free flip-flop cannot sit in a path's interior, so
// a through-path's tail never uses it, and without the exclusion the
// search would re-take it trivially and starve the re-seat of the head,
// leaving the matching one short of maximum (the crossCheck audit caught
// exactly that drift on b12/1). The re-seat then hunts the head, or —
// when the forward search failed — re-seats the freed flip-flop.
func (e *evaluator) repairShrunk(pi, bi int, removed int32) {
	b := &e.s.blocks[pi][bi]
	ph := e.p.phases[pi]
	fresh := false
	for _, fi := range ph.itemFFs[b.members[0]] {
		if !ph.ffs[fi].adj.has(removed) && ph.ffCovers(fi, b) {
			fresh = true
			break
		}
	}
	if !fresh {
		return
	}
	g := e.release(pi, bi)
	e.stamp++
	if g >= 0 {
		e.visited[g] = e.stamp
	}
	e.augment(pi, bi)
	if g >= 0 {
		e.reseat(g)
	}
}

// --- journaled structural primitives ---

func (e *evaluator) pushMember(pi, bi int, item int32) {
	b := &e.s.blocks[pi][bi]
	e.rec(jop{kind: jPush, pi: int8(pi), a: int32(bi), c: item})
	b.members = append(b.members, item)
	b.mask.set(item)
	e.setItemBlock(pi, item, int32(bi))
}

func (e *evaluator) takeMember(pi, bi, mi int) int32 {
	b := &e.s.blocks[pi][bi]
	item := b.members[mi]
	e.rec(jop{kind: jTake, pi: int8(pi), a: int32(bi), b: int32(mi), c: item})
	last := len(b.members) - 1
	b.members[mi] = b.members[last]
	b.members = b.members[:last]
	b.mask.clear(item)
	e.setItemBlock(pi, item, -1)
	return item
}

// removeBlock releases the block's flip-flop, swap-deletes the slot, and
// patches the owner entry of the block swapped into it. It returns the
// freed flip-flop's global index (-1 if the block was exposed) so the
// caller can run the deletion repair once the structure is consistent.
func (e *evaluator) removeBlock(pi, bi int) int32 {
	g := e.release(pi, bi)
	blocks := e.s.blocks[pi]
	last := len(blocks) - 1
	e.rec(jop{kind: jSwapRemove, pi: int8(pi), a: int32(bi), blk: blocks[bi]})
	for _, m := range blocks[bi].members {
		e.setItemBlock(pi, m, -1)
	}
	if bi != last {
		blocks[bi] = blocks[last]
		for _, m := range blocks[bi].members {
			e.setItemBlock(pi, m, int32(bi))
		}
		if f := blocks[bi].ff; f >= 0 {
			e.setOwner(e.p.phases[pi].ffs[f].global, int8(pi), int32(bi))
		}
	}
	blocks[last] = block{}
	e.s.blocks[pi] = blocks[:last]
	e.nblocks--
	return g
}

func (e *evaluator) appendSingleton(pi int, item int32) int {
	ph := e.p.phases[pi]
	b := block{members: []int32{item}, mask: newBitset(ph.n), ff: -1}
	b.mask.set(item)
	e.rec(jop{kind: jAppend, pi: int8(pi)})
	e.s.blocks[pi] = append(e.s.blocks[pi], b)
	e.nblocks++
	bi := len(e.s.blocks[pi]) - 1
	e.setItemBlock(pi, item, int32(bi))
	return bi
}

// --- moves ---

// merge fuses block bj into bi (caller checked canMerge) and returns the
// surviving block's index. Two elementary changes: delete left bj (re-seat
// its freed flip-flop), then grow bi's mask (grown repair).
func (e *evaluator) merge(pi, bi, bj int) int {
	blocks := e.s.blocks[pi]
	last := len(blocks) - 1
	bjBlk := blocks[bj] // member/mask buffers survive the swap-delete
	g := e.removeBlock(pi, bj)
	if bi == last {
		bi = bj // bi was swapped into the vacated slot
	}
	if g >= 0 {
		e.reseat(g)
	}
	a := &e.s.blocks[pi][bi]
	e.rec(jop{kind: jExtend, pi: int8(pi), a: int32(bi), b: int32(len(a.members))})
	a.members = append(a.members, bjBlk.members...)
	e.rec(jop{kind: jMaskOr, pi: int8(pi), a: int32(bi), m: bjBlk.mask})
	for w := range a.mask {
		a.mask[w] |= bjBlk.mask[w]
	}
	for _, m := range bjBlk.members {
		e.setItemBlock(pi, m, int32(bi))
	}
	e.repairGrown(pi, bi)
	e.check("merge")
	return bi
}

// relocate moves the member at position mi of block from into block to
// (caller checked canJoin on to). Elementary changes: shrink (or delete)
// the source block, then grow the target.
func (e *evaluator) relocate(pi, from, mi, to int) {
	var item int32
	if len(e.s.blocks[pi][from].members) == 1 {
		item = e.s.blocks[pi][from].members[0]
		last := len(e.s.blocks[pi]) - 1
		g := e.removeBlock(pi, from)
		if to == last {
			to = from // target was swapped into the vacated slot
		}
		if g >= 0 {
			e.reseat(g)
		}
	} else {
		item = e.takeMember(pi, from, mi)
		e.repairShrunk(pi, from, item)
	}
	e.pushMember(pi, to, item)
	e.repairGrown(pi, to)
	e.check("relocate")
}

// splitOut extracts the member at position mi of block bi (which must
// hold at least two members) into a fresh singleton block.
func (e *evaluator) splitOut(pi, bi, mi int) int {
	item := e.takeMember(pi, bi, mi)
	e.repairShrunk(pi, bi, item)
	nb := e.appendSingleton(pi, item)
	e.stamp++
	e.augment(pi, nb)
	e.check("splitOut")
	return nb
}

// dissolve peels block bi down to a singleton, each peeled member opening
// its own singleton block (the destroy half of destroy/repair).
func (e *evaluator) dissolve(pi, bi int) {
	for len(e.s.blocks[pi][bi].members) > 1 {
		e.splitOut(pi, bi, len(e.s.blocks[pi][bi].members)-1)
	}
}

// check cross-scores the evaluator against the reference from-scratch
// rematch when crossCheck debugging is on; a mismatch is a repair bug.
func (e *evaluator) check(move string) {
	if !e.crossCheck {
		return
	}
	if got, want := e.cells(), referenceCells(e.p, e.s); got != want {
		panic(fmt.Sprintf("refine: incremental %s repair drifted: %d cells, reference rematch %d", move, got, want))
	}
}

// referenceCells prices a solution with the PR 6 reference path: clone,
// strip the matching, rerun the per-source rematch from scratch. It shares
// none of the evaluator's incremental state, which makes it the oracle the
// property tests and crossCheck mode compare against.
func referenceCells(p *Problem, s *Solution) int {
	c := s.clone()
	for pi := range c.blocks {
		for bi := range c.blocks[pi] {
			c.blocks[pi][bi].ff = -1
		}
	}
	for w := range c.ffUsed {
		c.ffUsed[w] = 0
	}
	augmentAll(p, c)
	return c.cells(p)
}
