package netlist_test

import (
	"fmt"
	"testing"

	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
)

// poolTestDie builds a small-but-real die for pool tests.
func poolTestDie(t testing.TB) *netlist.Netlist {
	t.Helper()
	n, err := netgen.Generate(netgen.ITC99Circuit("b12")[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func coneSignals(n *netlist.Netlist) []netlist.SignalID {
	var signals []netlist.SignalID
	signals = append(signals, n.InboundTSVs()...)
	signals = append(signals, n.FlipFlops()...)
	for _, p := range n.OutboundTSVs() {
		signals = append(signals, n.Outputs[p].Signal)
	}
	return signals
}

// TestArenaConesMatchUnpooled proves the arena only changes where the
// words come from: every cone built through recycled storage is
// bit-identical to the plain allocation path, at every worker count.
// Run under -race in CI, this doubles as the concurrent-arena safety
// check (workers share one arena).
func TestArenaConesMatchUnpooled(t *testing.T) {
	n := poolTestDie(t)
	signals := coneSignals(n)
	want := netlist.NewConeSetWorkers(n, signals, 1)

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			arena := netlist.NewArena()
			defer arena.Release()
			// Two rounds: the second draws the word slices the first
			// returned, so any stale-bit leak shows up as a cone diff.
			for round := 0; round < 2; round++ {
				got := netlist.NewConeSetArena(n, signals, workers, arena)
				for _, s := range signals {
					assertSameBits(t, "fanin", s, want.Fanin(s), got.Fanin(s))
					assertSameBits(t, "fanout", s, want.Fanout(s), got.Fanout(s))
				}
				arena.Release()
			}
		})
	}
}

func assertSameBits(t *testing.T, kind string, s netlist.SignalID, want, got *netlist.BitSet) {
	t.Helper()
	if want.Count() != got.Count() {
		t.Fatalf("%s cone of %d: count %d != %d", kind, s, got.Count(), want.Count())
	}
	for _, m := range want.Members() {
		if !got.Has(m) {
			t.Fatalf("%s cone of %d: missing member %d", kind, s, m)
		}
	}
}

// TestArenaRecycledBitSetIsClean dirties every bit of every arena bitset,
// releases, and re-draws: a recycled set must come back all-zero — stale
// bits from the previous die are exactly the corruption the pool must
// never leak.
func TestArenaRecycledBitSetIsClean(t *testing.T) {
	arena := netlist.NewArena()
	defer arena.Release()
	const size = 1000
	for i := 0; i < 64; i++ {
		b := arena.NewBitSet(size)
		for id := 0; id < size; id++ {
			b.Set(netlist.SignalID(id))
		}
	}
	arena.Release()
	for i := 0; i < 64; i++ {
		b := arena.NewBitSet(size)
		if c := b.Count(); c != 0 {
			t.Fatalf("recycled bitset %d carries %d stale bits", i, c)
		}
	}
}

// TestArenaNoAliasing proves two live bitsets from one arena never share
// word storage.
func TestArenaNoAliasing(t *testing.T) {
	arena := netlist.NewArena()
	defer arena.Release()
	const size = 500
	sets := make([]*netlist.BitSet, 32)
	for i := range sets {
		sets[i] = arena.NewBitSet(size)
		sets[i].Set(netlist.SignalID(i))
	}
	for i, b := range sets {
		if c := b.Count(); c != 1 {
			t.Fatalf("set %d has %d members, want 1 (aliased storage)", i, c)
		}
		if !b.Has(netlist.SignalID(i)) {
			t.Fatalf("set %d lost its own bit", i)
		}
	}
}

// TestNilArenaDegradesToPlainAllocation: a nil arena is the documented
// no-pooling fallback.
func TestNilArenaDegradesToPlainAllocation(t *testing.T) {
	var arena *netlist.Arena
	b := arena.NewBitSet(100)
	b.Set(7)
	if !b.Has(7) || b.Count() != 1 {
		t.Fatal("nil-arena bitset broken")
	}
	arena.Release() // must not panic
	if arena.Held() != 0 {
		t.Fatal("nil arena reports held storage")
	}
}
