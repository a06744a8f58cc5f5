package refine

import (
	"math/bits"
	"sort"
)

// candidateK bounds each block's merge-partner candidate list.
const candidateK = 16

// mergeCandidates ranks, for every block of phase pi, up to candidateK
// partner blocks by shared flip-flop cover overlap — the number of
// phase-local flip-flops whose adjacency covers both blocks. A flip-flop
// can serve a merged block only if it covers both halves, so high overlap
// marks the pairs most likely to stay covered after fusing; zero-overlap
// pairs still rank (merging two exposed blocks saves a cell with no
// flip-flop at all), just last. Pairs whose combined member count already
// exceeds the load bound are dropped outright. The order is deterministic:
// overlap descending, partner index ascending. A sweep over the lists is
// O(n·candidateK) trials instead of the all-pairs O(n²).
func mergeCandidates(p *Problem, s *Solution, pi int) [][]int32 {
	ph := p.phases[pi]
	blocks := s.blocks[pi]
	nb := len(blocks)
	nw := (len(ph.ffs) + 63) / 64
	// cover[bi]: the phase-local flip-flops that can serve block bi. Any
	// such flip-flop is adjacent to every member, in particular the first,
	// so scanning itemFFs of member 0 finds them all.
	buf := make(bitset, nw*nb)
	cover := make([]bitset, nb)
	for bi := range blocks {
		row := buf[bi*nw : (bi+1)*nw]
		for _, fi := range ph.itemFFs[blocks[bi].members[0]] {
			if ph.ffCovers(fi, &blocks[bi]) {
				row.set(fi)
			}
		}
		cover[bi] = row
	}
	type scored struct {
		bj      int32
		overlap int32
	}
	lists := make([][]int32, nb)
	cand := make([]scored, 0, nb)
	for bi := range blocks {
		cand = cand[:0]
		for bj := range blocks {
			if bj == bi || len(blocks[bi].members)+len(blocks[bj].members) > ph.maxLen {
				continue
			}
			ov := 0
			for w := 0; w < nw; w++ {
				ov += bits.OnesCount64(cover[bi][w] & cover[bj][w])
			}
			cand = append(cand, scored{bj: int32(bj), overlap: int32(ov)})
		}
		sort.Slice(cand, func(i, j int) bool {
			if cand[i].overlap != cand[j].overlap {
				return cand[i].overlap > cand[j].overlap
			}
			return cand[i].bj < cand[j].bj
		})
		n := candidateK
		if n > len(cand) {
			n = len(cand)
		}
		list := make([]int32, n)
		for i := range list {
			list[i] = cand[i].bj
		}
		lists[bi] = list
	}
	return lists
}
