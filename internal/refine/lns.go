package refine

import (
	"context"
	"math/bits"
	"math/rand"
	"sort"
)

// lns is the large-neighborhood strategy: destroy/repair. Each iteration
// evicts a cluster of blocks — a random seed block plus its closest
// partners by shared flip-flop cover overlap — back into singletons, then
// greedily repacks the phase with non-worsening first-fit merges. The
// iteration is kept only when it strictly lowers the cell count, so the
// walk is a sequence of record-to-record improvements over structures the
// one-move neighborhoods of local search and annealing cannot reach in a
// single step. A fixed (seed, step budget) replays the same trajectory;
// after lnsFruitlessCutoff consecutive unkept iterations the neighborhood
// is considered exhausted and the strategy stops.
type lns struct{}

func (lns) Name() string { return "lns" }

const (
	// Destroy sizes: how many blocks one iteration dissolves.
	lnsMinDestroy = 2
	lnsMaxDestroy = 5
	// lnsFruitlessCutoff bounds consecutive unkept iterations.
	lnsFruitlessCutoff = 400
)

func (lns) Refine(ctx context.Context, p *Problem, start *Solution, o Options, emit func(*Solution)) (int, error) {
	e := newEvaluator(p, start.clone())
	e.crossCheck = o.CrossCheck
	incumbent := start.cells(p)
	if e.cells() < incumbent {
		incumbent = e.cells()
		emit(e.s)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	cur := e.cells()
	maxSteps := o.maxSteps(unboundedSteps)
	steps, fail := 0, 0
	for steps < maxSteps && fail < lnsFruitlessCutoff {
		if ctx.Err() != nil {
			break
		}
		steps++
		pi := rng.Intn(2)
		if len(e.s.blocks[pi]) < 2 {
			fail++
			continue
		}
		m := e.mark()
		size := lnsMinDestroy + rng.Intn(lnsMaxDestroy-lnsMinDestroy+1)
		cluster := pickCluster(p, e.s, pi, size, rng)
		for _, bi := range cluster {
			// dissolve only appends singleton blocks, so the remaining
			// cluster indices stay valid.
			e.dissolve(pi, bi)
		}
		repack(p, e, pi)
		if e.cells() < cur {
			cur = e.cells()
			e.commit()
			fail = 0
			if cur < incumbent {
				incumbent = cur
				emit(e.s)
			}
		} else {
			e.revert(m)
			fail++
		}
	}
	return steps, ctx.Err()
}

// pickCluster chooses the blocks one destroy step evicts: a random seed
// block plus its size−1 closest partners by shared flip-flop cover
// overlap, ties broken by a seeded shuffle so zero-overlap phases still
// explore varied clusters.
func pickCluster(p *Problem, s *Solution, pi, size int, rng *rand.Rand) []int {
	ph := p.phases[pi]
	blocks := s.blocks[pi]
	nb := len(blocks)
	nw := (len(ph.ffs) + 63) / 64
	coverOf := func(bi int) bitset {
		row := make(bitset, nw)
		b := &blocks[bi]
		for _, fi := range ph.itemFFs[b.members[0]] {
			if ph.ffCovers(fi, b) {
				row.set(fi)
			}
		}
		return row
	}
	seed := rng.Intn(nb)
	seedCover := coverOf(seed)
	type scored struct{ bi, overlap int }
	order := rng.Perm(nb)
	cand := make([]scored, 0, nb-1)
	for _, bi := range order {
		if bi == seed {
			continue
		}
		row := coverOf(bi)
		ov := 0
		for w := range row {
			ov += bits.OnesCount64(row[w] & seedCover[w])
		}
		cand = append(cand, scored{bi: bi, overlap: ov})
	}
	sort.SliceStable(cand, func(i, j int) bool { return cand[i].overlap > cand[j].overlap })
	cluster := []int{seed}
	for i := 0; i < len(cand) && len(cluster) < size; i++ {
		cluster = append(cluster, cand[i].bi)
	}
	return cluster
}

// repack greedily re-absorbs the phase's singletons: first-fit merges in
// index order, accepting any merge that does not increase the cell count
// (a neutral merge trades a reused flip-flop for a removed block, which
// often unlocks a strictly improving merge later in the pass).
func repack(p *Problem, e *evaluator, pi int) {
	ph := p.phases[pi]
	for again := true; again; {
		again = false
		for bi := 0; bi < len(e.s.blocks[pi]); bi++ {
			if len(e.s.blocks[pi][bi].members) != 1 {
				continue
			}
			for to := 0; to < len(e.s.blocks[pi]); to++ {
				if to == bi || !ph.canMerge(&e.s.blocks[pi][to], &e.s.blocks[pi][bi]) {
					continue
				}
				before := e.cells()
				m := e.mark()
				e.merge(pi, to, bi)
				if e.cells() <= before {
					again = true
					bi--
					break
				}
				e.revert(m)
			}
		}
	}
}
