package refine

// The flip-flop assignment is a maximum bipartite matching: blocks (of both
// phases) on the left, the global flip-flop table on the right, an edge
// where the flip-flop's phase-local adjacency covers the whole block. Kuhn's
// augmenting paths — the same algorithm the exhaustive oracle uses for its
// leaf scoring — compute it from scratch here. The solvers never call it:
// they repair the matching incrementally (eval.go), and augmentAll is the
// from-scratch reference that referenceCells prices against.

// matcher holds the owner index (global flip-flop → block) rebuilt per
// augmentation round.
type matcher struct {
	p          *Problem
	s          *Solution
	ownerPhase []int32 // per global ff: phase of the owning block, -1 free
	ownerBlock []int32
	visited    []int32 // visit stamp per global ff
	stamp      int32
}

func newMatcher(p *Problem, s *Solution) *matcher {
	m := &matcher{
		p:          p,
		s:          s,
		ownerPhase: make([]int32, len(p.ffSigs)),
		ownerBlock: make([]int32, len(p.ffSigs)),
		visited:    make([]int32, len(p.ffSigs)),
	}
	for g := range m.ownerPhase {
		m.ownerPhase[g], m.ownerBlock[g] = -1, -1
	}
	for pi := range s.blocks {
		for bi := range s.blocks[pi] {
			if fi := s.blocks[pi][bi].ff; fi >= 0 {
				g := p.phases[pi].ffs[fi].global
				m.ownerPhase[g], m.ownerBlock[g] = int32(pi), int32(bi)
			}
		}
	}
	return m
}

// augment searches an augmenting path from block (pi, bi); on success the
// block ends up with a flip-flop and every block on the path keeps one.
func (m *matcher) augment(pi, bi int) bool {
	ph := m.p.phases[pi]
	b := &m.s.blocks[pi][bi]
	for _, fi := range ph.itemFFs[b.members[0]] {
		g := ph.ffs[fi].global
		if m.visited[g] == m.stamp {
			continue
		}
		if !ph.ffCovers(fi, b) {
			continue
		}
		m.visited[g] = m.stamp
		if m.ownerBlock[g] < 0 || m.augment(int(m.ownerPhase[g]), int(m.ownerBlock[g])) {
			b.ff = fi
			m.s.ffUsed.set(g)
			m.ownerPhase[g], m.ownerBlock[g] = int32(pi), int32(bi)
			return true
		}
	}
	return false
}

// augmentAll restores the matching to maximum by augmenting from every
// unmatched block, and returns the matched count. Starting from any valid
// partial matching (including the greedy plan's own assignment), one
// augmentation attempt per unmatched block reaches a maximum matching.
func augmentAll(p *Problem, s *Solution) int {
	m := newMatcher(p, s)
	matched := 0
	for pi := range s.blocks {
		for bi := range s.blocks[pi] {
			if s.blocks[pi][bi].ff >= 0 {
				matched++
				continue
			}
			m.stamp++
			if m.augment(pi, bi) {
				matched++
			}
		}
	}
	return matched
}
