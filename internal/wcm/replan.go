package wcm

import (
	"wcm3d/internal/netlist"
	"wcm3d/internal/scan"
)

// Session memoizes the expensive pure functions of a die's static geometry
// across repeated WCM runs, so that replanning after a small netlist patch
// (a failed TSV rerouted to a spare pad) costs the graph rebuild and the
// partition — not the cone traversals and the O(n²) edge sweep.
//
// What is cached, and why it stays valid:
//
//   - Masked cones (cone &^ sourceMask), keyed by (node kind, signal).
//     Fan-in cones stop at sources and fan-out traversal never passes
//     through one, so rerouting a source-driven pin from one source pad to
//     another changes only which *sources* a cone contains — and sources
//     are stripped by the mask before any overlap test. The masked cone is
//     bit-identical before and after the patch.
//   - Edge verdicts (none / clean / overlap), keyed by the unordered slot
//     pair. edgeAllowed reads placement coordinates, static load/budget
//     parameters, anchors and masked cones — never slacks — so a verdict
//     is a pure function of frozen die geometry. Slacks only decide
//     *membership* (the item filters and ffEligible), which every run
//     recomputes from scratch in O(n).
//
// The caller may mutate the session's netlist between Run calls only in
// the ways the cache analysis above covers:
//
//   - rewiring a gate's fanin pin from one source gate to another source
//     gate (netlist.RewireFanin with both old and new drivers of a source
//     type);
//   - retyping a gate between source types (GateInput ↔ GateTSVIn);
//   - rewiring an output port to a different driver and/or changing its
//     PortClass.
//
// No gates or ports may be added or removed, and the placement, library
// and base timing analysis are frozen for the session's lifetime. One
// obligation rides with pin rewires: the fan-out cone anchored *at* a
// rewired source changes (whole subtrees move between the old and the new
// driver), so the caller must InvalidateSource both endpoints of every
// rewired pin before the next Run. Cones anchored anywhere else are
// unaffected — fan-out traversal never passes through a source, and
// fan-in cones only swap which sources they contain, which the mask
// strips. Under that contract every Session.Run returns a result deeply
// equal to a fresh wcm.Run on the same Input — the differential suites in
// internal/tsvrepair certify it.
//
// Beyond the memo layer, a session caches each phase's complete outcome
// (emitted groups, consumed flip-flops, stats) keyed by the phase's exact
// inputs: the ordered TSV signal list, the filter outcomes, and the memo
// slot ids of every participating item and flip-flop. Slot ids are never
// reused, so an elementwise slot match certifies that every cached
// verdict the phase was built from is still valid — the phase replays
// from cache without touching the graph. Timing only enters a phase
// through membership (the item filters and ffEligible), so two runs with
// identical membership and slots produce identical phases even when the
// refreshed slack values differ. A phase whose inputs changed (the dirty
// phase after a repair) rebuilds its graph, pricing only the pairs the
// verdict matrix has never seen.
//
// A Session is not safe for concurrent use.
type Session struct {
	in   Input
	opts Options
	st   sessionState
}

// sessionState is everything run() consults on a session run: one memo
// per phase kind (cones and verdicts differ between the control fan-out
// and observe fan-in sides, and the phase order may flip between runs
// when a repair changes the set sizes), plus one whole-phase result cache
// per phase position.
type sessionState struct {
	inboundMemo  phaseMemo
	outboundMemo phaseMemo
	stages       [2]stageCache
}

// NewSession prepares a memoizing session over a die. The first Run pays
// full cost and seeds the caches; later Runs reuse them.
func NewSession(in Input, opts Options) *Session {
	return &Session{in: in, opts: opts}
}

// Input returns the session's input as configured (phase-one timing; the
// cross-phase refresh hook untouched). A from-scratch wcm.Run over this
// exact value is the reference the session's results are certified
// against.
func (s *Session) Input() Input { return s.in }

// Options returns the session's configured options.
func (s *Session) Options() Options { return s.opts }

// Run executes the WCM flow against the netlist's current state, reusing
// every cached cone and edge verdict that is still valid under the
// session contract and caching whatever it had to compute fresh.
func (s *Session) Run() (*Result, error) {
	return run(s.in, s.opts, &s.st)
}

// InvalidateSource drops cached geometry anchored at a source pad whose
// fan-out pin set changed (a repair moving pins onto or off of it). The
// slot's storage and verdict row are abandoned, not reclaimed — the next
// Run re-derives the cone under a fresh slot. Growth is bounded by the
// number of repairs, a few cells each.
func (s *Session) InvalidateSource(sig netlist.SignalID) {
	key := slotKey{ff: false, sig: sig}
	delete(s.st.inboundMemo.slots, key)
	delete(s.st.outboundMemo.slots, key)
}

// MemoStats reports cache occupancy (diagnostics and tests).
func (s *Session) MemoStats() (slots, verdicts int) {
	for _, m := range []*phaseMemo{&s.st.inboundMemo, &s.st.outboundMemo} {
		slots += len(m.slots)
		for _, v := range m.verd.v {
			if v != verdUnknown {
				verdicts++
			}
		}
	}
	return slots, verdicts
}

// slotKey identifies one memo slot: a graph node's stable identity across
// runs. Items and flip-flop nodes live in separate key spaces because an
// outbound port's anchor (its driving signal) can collide with a
// flip-flop's D driver while their node parameters differ.
type slotKey struct {
	ff  bool
	sig netlist.SignalID
}

// phaseMemo caches masked cones and edge verdicts for one phase kind.
type phaseMemo struct {
	slots  map[slotKey]int32
	masked []netlist.SparseSet // per slot: cone &^ sourceMask, nonzero words
	verd   verdictMatrix
}

// slotFor returns the memo slot for a key, inserting an empty slot when
// the key is new (the caller then fills masked at the same index).
func (m *phaseMemo) slotFor(key slotKey) (slot int32, hit bool) {
	if m.slots == nil {
		m.slots = make(map[slotKey]int32)
	}
	if s, ok := m.slots[key]; ok {
		return s, true
	}
	s := int32(len(m.masked))
	m.slots[key] = s
	m.masked = append(m.masked, netlist.SparseSet{})
	return s, false
}

// stageCache holds one phase's complete outcome keyed by its exact
// inputs. The fingerprint is the phase kind, the full ordered TSV signal
// list (and port indices on the observe side), the indices that passed
// the node filter, and the memo slot id of every included item and every
// participating flip-flop. Slot ids are never reused — InvalidateSource
// deletes the key, so a re-derived cone gets a fresh id — which makes an
// elementwise slot match a proof that every verdict the cached phase was
// built from is unchanged. Membership lists subsume every timing
// dependency: slacks decide only who participates, never how the graph
// is built or partitioned.
type stageCache struct {
	valid   bool
	inbound bool
	sigs    []netlist.SignalID
	ports   []int
	items   []int
	slots   []int32 // memo slot per included item, aligned with items
	ffSlots []int32 // memo slot per participating flip-flop
	stats   PhaseStats
	control []scan.ControlGroup
	observe []scan.ObserveGroup
	usedFFs []netlist.SignalID
}

// replay compares the collected phase inputs against the cache and, on a
// match, appends deep copies of the cached groups to the assignment and
// consumes the cached flip-flops. It never creates memo slots: a missing
// slot is a fingerprint miss.
func (sc *stageCache) replay(ph *phaseRunner, asn *scan.Assignment) bool {
	if !sc.valid || sc.inbound != ph.inbound ||
		!equalSigs(sc.sigs, ph.tsvSignals) || !equalInts(sc.ports, ph.tsvPorts) ||
		!equalInts(sc.items, ph.items) || len(sc.ffSlots) != len(ph.ffs) {
		return false
	}
	memo := ph.memo
	for k, i := range sc.items {
		s, ok := memo.slots[slotKey{ff: false, sig: ph.tsvSignals[i]}]
		if !ok || s != sc.slots[k] {
			return false
		}
	}
	for k, ff := range ph.ffs {
		s, ok := memo.slots[slotKey{ff: true, sig: ff}]
		if !ok || s != sc.ffSlots[k] {
			return false
		}
	}
	for _, g := range sc.control {
		cp := g
		cp.TSVs = append([]netlist.SignalID(nil), g.TSVs...)
		asn.Control = append(asn.Control, cp)
	}
	for _, g := range sc.observe {
		cp := g
		cp.Ports = append([]int(nil), g.Ports...)
		asn.Observe = append(asn.Observe, cp)
	}
	for _, ff := range sc.usedFFs {
		ph.available[ff] = false
	}
	return true
}

// fill records a freshly computed phase: its fingerprint, stats, the
// groups it appended to the assignment (deep-copied — the caller owns the
// returned plan), and the flip-flops it consumed.
func (sc *stageCache) fill(ph *phaseRunner, stats PhaseStats, asn *scan.Assignment, c0, o0 int) {
	sc.inbound = ph.inbound
	sc.sigs = append(sc.sigs[:0], ph.tsvSignals...)
	sc.ports = append(sc.ports[:0], ph.tsvPorts...)
	sc.items = append(sc.items[:0], ph.items...)
	sc.slots = append(sc.slots[:0], ph.nodeSlot[:len(ph.items)]...)
	sc.ffSlots = append(sc.ffSlots[:0], ph.nodeSlot[len(ph.items):]...)
	sc.stats = stats
	sc.control = sc.control[:0]
	for _, g := range asn.Control[c0:] {
		cp := g
		cp.TSVs = append([]netlist.SignalID(nil), g.TSVs...)
		sc.control = append(sc.control, cp)
	}
	sc.observe = sc.observe[:0]
	for _, g := range asn.Observe[o0:] {
		cp := g
		cp.Ports = append([]int(nil), g.Ports...)
		sc.observe = append(sc.observe, cp)
	}
	sc.usedFFs = append(sc.usedFFs[:0], ph.usedFFs...)
	sc.valid = true
}

func equalSigs(a, b []netlist.SignalID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verdUnknown marks an uncomputed verdict cell (the computed values are
// edgeNone/edgeClean/edgeOverlap = 0/1/2).
const verdUnknown uint8 = 0xFF

// verdictMatrix is a dense square slot×slot verdict store. Cells are
// addressed with the smaller slot first; the diagonal is never stored
// (equal anchors are rejected by edgeAllowed without geometry reads).
type verdictMatrix struct {
	stride int
	v      []uint8
}

// ensure grows the matrix to hold at least n slots, preserving content.
func (m *verdictMatrix) ensure(n int) {
	if n <= m.stride {
		return
	}
	ns := n + n/4 + 16
	nv := make([]uint8, ns*ns)
	for i := range nv {
		nv[i] = verdUnknown
	}
	for r := 0; r < m.stride; r++ {
		copy(nv[r*ns:r*ns+m.stride], m.v[r*m.stride:(r+1)*m.stride])
	}
	m.stride, m.v = ns, nv
}

func (m *verdictMatrix) get(a, b int32) uint8 {
	if a > b {
		a, b = b, a
	}
	return m.v[int(a)*m.stride+int(b)]
}

func (m *verdictMatrix) set(a, b int32, val uint8) {
	if a > b {
		a, b = b, a
	}
	m.v[int(a)*m.stride+int(b)] = val
}
