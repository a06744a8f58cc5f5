package verify

import (
	"math"
	"testing"

	"wcm3d/internal/cells"
	"wcm3d/internal/netgen"
	"wcm3d/internal/place"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

// FuzzPlan is the run→verify harness: generate a random die from the
// fuzzed shape, plan it under fuzzed options, and demand the independent
// verifier certifies the plan with zero violations. Any counterexample is a
// real bug in the optimizer, the verifier, or their shared understanding of
// the paper's constraints — go test replays the seeded corpus under
// testdata/fuzz/FuzzPlan (one entry per Table II die profile, scaled to
// fuzz-sized dies) on every plain run; `go test -fuzz=FuzzPlan` explores.
//
// flags selects options bit by bit. Bit 16 once selected a first-edge merge
// policy that no longer exists; it is now a no-op, and the other bits keep
// their numbers, so every committed corpus entry keeps its other meanings.
func FuzzPlan(f *testing.F) {
	f.Add(300, 12, 8, 8, int64(1), int64(0))
	f.Add(400, 6, 12, 12, int64(9), int64(1))   // inbound-first
	f.Add(500, 16, 14, 14, int64(7), int64(12)) // cap-only, overlap off
	f.Add(250, 40, 5, 9, int64(3), int64(32))   // finite d_th
	f.Add(350, 10, 9, 3, int64(5), int64(64))   // tight clock
	f.Fuzz(func(t *testing.T, gates, ffs, tin, tout int, seed, flags int64) {
		// Clamp the shape to something generable and affordable; the
		// clamps keep every fuzzed input meaningful instead of rejected.
		gates = 16 + abs(gates)%1185
		ffs = abs(ffs) % 64
		tin = abs(tin) % 25
		tout = abs(tout) % 25
		n, err := netgen.Random(netgen.RandomOptions{
			Gates: gates, FFs: ffs, PIs: 4, POs: 2,
			InboundTSVs: tin, OutboundTSVs: tout, Seed: seed,
		})
		if err != nil {
			t.Skip(err) // unrealizable shape, not a bug
		}
		lib := cells.Default45nm()
		pl, err := place.Place(n, place.Options{Seed: seed})
		if err != nil {
			t.Fatalf("place: %v", err)
		}
		base, err := sta.Analyze(n, lib, sta.Config{ClockPS: 1e5, Placement: pl})
		if err != nil {
			t.Fatalf("sta: %v", err)
		}
		in := wcm.Input{Netlist: n, Lib: lib, Placement: pl, Timing: base}

		opts := wcm.DefaultOptions()
		switch flags & 3 {
		case 1:
			opts.Order = wcm.OrderInboundFirst
		case 2:
			opts.Order = wcm.OrderOutboundFirst
		case 3:
			opts.Order = wcm.OrderSmallerFirst
		}
		if flags&4 != 0 {
			opts.Timing = wcm.TimingCapOnly
		}
		if flags&8 != 0 {
			opts.AllowOverlap = false
		}
		if flags&32 != 0 {
			opts.DistThUM = 300
		} else {
			opts.DistThUM = math.Inf(1)
		}
		if flags&64 != 0 {
			// Barely-feasible clock: slack is scarce, the timing
			// admission rules actually bite.
			tight, err := sta.Analyze(n, lib, sta.Config{
				ClockPS: base.CriticalPathPS() + 50, Placement: pl,
			})
			if err != nil {
				t.Fatalf("tight sta: %v", err)
			}
			in.Timing = tight
			opts.SlackThPS = 20
		}
		if flags&128 != 0 {
			opts.SlackSpendFrac = math.Inf(1)
		}
		opts.Workers = 1

		res, err := wcm.Run(in, opts)
		if err != nil {
			t.Fatalf("wcm.Run(%d gates, %d ffs, %d/%d tsvs, flags %d): %v",
				gates, ffs, tin, tout, flags, err)
		}
		vres, err := Plan(in, res.Assignment, Options{Thresholds: &res.Options})
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		for _, v := range vres.Violations {
			t.Errorf("violation: %s", v)
		}
		if t.Failed() {
			t.Fatalf("uncertified plan on %d gates, %d ffs, %d/%d tsvs, seed %d, flags %d",
				gates, ffs, tin, tout, seed, flags)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		// Avoid the MinInt overflow; any fixed positive value keeps the
		// clamp total.
		if v == -v {
			return 1
		}
		return -v
	}
	return v
}
