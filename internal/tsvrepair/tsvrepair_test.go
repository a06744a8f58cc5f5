package tsvrepair

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"wcm3d/internal/experiments"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/wcm"
)

// testDie builds a small prepared die carrying spare TSV sites.
func testDie(t testing.TB, seed int64, spec SpareSpec) *experiments.Die {
	t.Helper()
	n, err := netgen.Random(netgen.RandomOptions{
		Gates: 350, FFs: 14, PIs: 5, POs: 4,
		InboundTSVs: 8, OutboundTSVs: 8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := AddSpares(n, spec); err != nil {
		t.Fatal(err)
	}
	d, err := experiments.PrepareNetlist(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// prepareSpared generates a benchmark die, adds spare TSV sites and
// prepares it, as wcm3d.PrepareDieWithSpares does.
func prepareSpared(p netgen.Profile, seed int64, spec SpareSpec) (*experiments.Die, error) {
	n, err := netgen.Generate(p, seed)
	if err != nil {
		return nil, err
	}
	if err := AddSpares(n, spec); err != nil {
		return nil, err
	}
	d, err := experiments.PrepareNetlist(n, seed)
	if err != nil {
		return nil, err
	}
	d.Profile = p
	return d, nil
}

func planOpts(workers int) wcm.Options {
	opts := wcm.DefaultOptions()
	opts.Workers = workers
	return opts
}

// assertDifferential runs the incremental and the from-scratch path over
// the planner's current die and fails unless they agree deeply and the
// incremental plan passes independent verification.
func assertDifferential(t *testing.T, p *Planner, tag string) *wcm.Result {
	t.Helper()
	inc, err := p.Replan()
	if err != nil {
		t.Fatalf("%s: replan: %v", tag, err)
	}
	ref, err := p.Rerun()
	if err != nil {
		t.Fatalf("%s: rerun: %v", tag, err)
	}
	if !reflect.DeepEqual(inc, ref) {
		t.Fatalf("%s: incremental plan diverges from from-scratch rerun\nincremental: %+v\nreference:   %+v", tag, inc, ref)
	}
	vr, err := p.Verify(inc)
	if err != nil {
		t.Fatalf("%s: verify: %v", tag, err)
	}
	if !vr.OK() {
		t.Fatalf("%s: incremental plan rejected: %s", tag, vr.Summary())
	}
	return inc
}

func inboundName(d *experiments.Die, i int) string {
	return d.Netlist.NameOf(d.Netlist.InboundTSVs()[i])
}

func outboundName(d *experiments.Die, i int) string {
	return d.Netlist.Outputs[d.Netlist.OutboundTSVs()[i]].Name
}

func TestSingleFaultReplanMatchesRerun(t *testing.T) {
	d := testDie(t, 101, SpareSpec{Inbound: 2, Outbound: 2})
	p, err := NewPlanner(d, planOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.Baseline() == nil {
		t.Fatal("no baseline plan")
	}
	reps, err := p.Apply(Delta{Faults: []Fault{{Kind: Stuck0, TSV: inboundName(p.Die(), 0)}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Inbound || reps[0].Spare == "" {
		t.Fatalf("unexpected repairs %+v", reps)
	}
	assertDifferential(t, p, "inbound stuck0")

	if _, err := p.Apply(Delta{Faults: []Fault{{Kind: Open, TSV: outboundName(p.Die(), 0)}}}); err != nil {
		t.Fatal(err)
	}
	assertDifferential(t, p, "outbound open")
}

func TestFaultKindsAndSpareAccounting(t *testing.T) {
	d := testDie(t, 103, SpareSpec{Inbound: 4, Outbound: 2})
	p, err := NewPlanner(d, planOpts(1))
	if err != nil {
		t.Fatal(err)
	}

	// A bridge kills both of its pair: two spares.
	_, err = p.Apply(Delta{Faults: []Fault{{Kind: Bridge, TSV: inboundName(p.Die(), 0), With: inboundName(p.Die(), 1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if in, _ := p.SparesLeft(); in != 2 {
		t.Fatalf("inbound spares left = %d after bridge, want 2", in)
	}
	assertDifferential(t, p, "bridge")

	// Crosstalk relocates the victim only: one spare, aggressor stays.
	aggressor := inboundName(p.Die(), 1)
	_, err = p.Apply(Delta{Faults: []Fault{{Kind: Crosstalk, TSV: inboundName(p.Die(), 0), With: aggressor}}})
	if err != nil {
		t.Fatal(err)
	}
	if in, _ := p.SparesLeft(); in != 1 {
		t.Fatalf("inbound spares left = %d after crosstalk, want 1", in)
	}
	if _, err := p.resolve(aggressor); err != nil {
		t.Fatalf("crosstalk aggressor must stay in service: %v", err)
	}
	assertDifferential(t, p, "crosstalk")

	// A promoted spare is itself repairable.
	spareName := p.Repairs()[len(p.Repairs())-1].Spare
	if _, err := p.Apply(Delta{Faults: []Fault{{Kind: Stuck1, TSV: spareName}}}); err != nil {
		t.Fatalf("failing a promoted spare: %v", err)
	}
	if in, _ := p.SparesLeft(); in != 0 {
		t.Fatalf("inbound spares left = %d, want 0", in)
	}
	assertDifferential(t, p, "promoted-spare fault")

	// Exhausted spares reject further inbound faults.
	_, err = p.Apply(Delta{Faults: []Fault{{Kind: Open, TSV: inboundName(p.Die(), 2)}}})
	if !errors.Is(err, ErrNoSpares) {
		t.Fatalf("want ErrNoSpares, got %v", err)
	}
}

func TestFaultValidation(t *testing.T) {
	d := testDie(t, 105, SpareSpec{Inbound: 2, Outbound: 1})
	p, err := NewPlanner(d, planOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	in0 := inboundName(p.Die(), 0)
	cases := []struct {
		name  string
		delta Delta
		want  error
	}{
		{"empty-delta", Delta{}, ErrBadFault},
		{"no-victim", Delta{Faults: []Fault{{Kind: Open}}}, ErrBadFault},
		{"unknown-kind", Delta{Faults: []Fault{{TSV: in0}}}, ErrBadFault},
		{"unknown-tsv", Delta{Faults: []Fault{{Kind: Open, TSV: "no_such_tsv"}}}, ErrUnknownTSV},
		{"stuck-with-partner", Delta{Faults: []Fault{{Kind: Stuck0, TSV: in0, With: in0}}}, ErrBadFault},
		{"bridge-no-partner", Delta{Faults: []Fault{{Kind: Bridge, TSV: in0}}}, ErrBadFault},
		{"bridge-self", Delta{Faults: []Fault{{Kind: Bridge, TSV: in0, With: in0}}}, ErrBadFault},
		{"crosstalk-unknown-aggressor", Delta{Faults: []Fault{{Kind: Crosstalk, TSV: in0, With: "ghost"}}}, ErrUnknownTSV},
		{"duplicate-victim", Delta{Faults: []Fault{
			{Kind: Open, TSV: in0}, {Kind: Stuck1, TSV: in0},
		}}, ErrBadFault},
		{"spare-is-not-a-tsv", Delta{Faults: []Fault{{Kind: Open, TSV: SpareInPrefix + "0"}}}, ErrUnknownTSV},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := p.Apply(tc.delta); !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
		})
	}
	if len(p.Repairs()) != 0 {
		t.Fatalf("rejected deltas must leave no repairs, got %+v", p.Repairs())
	}
}

func TestDeltaRollbackIsAtomic(t *testing.T) {
	d := testDie(t, 107, SpareSpec{Inbound: 3, Outbound: 1})
	p, err := NewPlanner(d, planOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	base := p.Baseline()

	// Second fault in the delta is unresolvable: the first must not land.
	_, err = p.Apply(Delta{Faults: []Fault{
		{Kind: Open, TSV: inboundName(p.Die(), 0)},
		{Kind: Open, TSV: "no_such_tsv"},
	}})
	if !errors.Is(err, ErrUnknownTSV) {
		t.Fatalf("want ErrUnknownTSV, got %v", err)
	}
	if in, out := p.SparesLeft(); in != 3 || out != 1 {
		t.Fatalf("spares = (%d,%d) after rejected delta, want (3,1)", in, out)
	}
	res := assertDifferential(t, p, "post-rollback")
	if !reflect.DeepEqual(res, base) {
		t.Fatal("rejected delta must leave the plan at the baseline")
	}
}

func TestPlannerClonesTheDie(t *testing.T) {
	d := testDie(t, 109, SpareSpec{Inbound: 2, Outbound: 1})
	before := len(d.Netlist.InboundTSVs())
	p, err := NewPlanner(d, planOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply(Delta{Faults: []Fault{{Kind: Open, TSV: inboundName(d, 0)}}}); err != nil {
		t.Fatal(err)
	}
	if p.Die() == d || p.Die().Netlist == d.Netlist {
		t.Fatal("planner must work on a private clone")
	}
	if got := len(d.Netlist.InboundTSVs()); got != before {
		t.Fatalf("original die mutated: %d inbound TSVs, want %d", got, before)
	}
	if d.Netlist.TypeOf(d.Netlist.InboundTSVs()[0]) != netlist.GateTSVIn {
		t.Fatal("original die's failed TSV must stay a TSV")
	}
}

// liveTSVNames enumerates every in-service TSV the fuzzer may fail.
func liveTSVNames(d *experiments.Die) []string {
	var names []string
	for _, id := range d.Netlist.InboundTSVs() {
		names = append(names, d.Netlist.NameOf(id))
	}
	for _, pi := range d.Netlist.OutboundTSVs() {
		names = append(names, d.Netlist.Outputs[pi].Name)
	}
	return names
}

// TestRandomizedDeltaSequences drives random fault sequences and holds the
// differential contract at every step. The full 24-profile × workers
// {1,2,8} sweep is TestFullEquivalenceSweepTableII (fullsweep_test.go)
// behind WCM3D_FULL_EQUIV; this in-package version stays cheap enough for
// every `go test`.
func TestRandomizedDeltaSequences(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			t.Parallel()
			d := testDie(t, 200+seed, SpareSpec{Inbound: 5, Outbound: 3})
			p, err := NewPlanner(d, planOpts(int(seed)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 5; step++ {
				f := randomFault(rng, liveTSVNames(p.Die()))
				if _, err := p.Apply(Delta{Faults: []Fault{f}}); err != nil {
					if errors.Is(err, ErrNoSpares) {
						break
					}
					t.Fatalf("step %d (%s): %v", step, f, err)
				}
				assertDifferential(t, p, f.String())
			}
		})
	}
}
