package verify

import (
	"math"
	"strings"
	"testing"

	"wcm3d/internal/cells"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

// prep builds a placed, timed die with the given profile knobs — the same
// shape internal/wcm's own tests use.
func prep(t testing.TB, gates, ffsN, in, out int, seed int64) wcm.Input {
	t.Helper()
	n, err := netgen.Random(netgen.RandomOptions{
		Gates: gates, FFs: ffsN, PIs: 5, POs: 3,
		InboundTSVs: in, OutboundTSVs: out, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default45nm()
	pl, err := place.Place(n, place.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sta.Analyze(n, lib, sta.Config{ClockPS: 1e5, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	return wcm.Input{Netlist: n, Lib: lib, Placement: pl, Timing: base}
}

// runAndVerify runs the heuristic and demands certification.
func runAndVerify(t *testing.T, in wcm.Input, opts wcm.Options) (*wcm.Result, *Result) {
	t.Helper()
	res, err := wcm.Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := Plan(in, res.Assignment, Options{Thresholds: &res.Options})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vres.Violations {
		t.Errorf("violation: %s", v)
	}
	return res, vres
}

func codes(vs []Violation) map[Code]int {
	m := make(map[Code]int)
	for _, v := range vs {
		m[v.Code]++
	}
	return m
}

func hasCode(vs []Violation, c Code) bool { return codes(vs)[c] > 0 }

func TestCertifiesHeuristicPlan(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 1)
	res, vres := runAndVerify(t, in, wcm.DefaultOptions())
	if vres.Groups == 0 || vres.ReusedFFs != res.ReusedFFs {
		t.Errorf("report mismatch: %+v vs result reuse %d", vres, res.ReusedFFs)
	}
}

func TestCertifiesFullWrapStructurally(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 2)
	asn := scan.FullWrap(in.Netlist)
	vres, err := Plan(in, asn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !vres.OK() {
		t.Fatalf("full wrap must certify structurally: %v", vres.Violations)
	}
}

// Mutation tests: corrupt a certified plan one invariant at a time and
// demand the verifier names the exact broken contract.

func certifiedPlan(t *testing.T, seed int64) (wcm.Input, *wcm.Result) {
	t.Helper()
	in := prep(t, 400, 20, 12, 12, seed)
	res, err := wcm.Run(in, wcm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return in, res
}

// clone deep-copies an assignment so mutations don't leak across subtests.
func clone(a *scan.Assignment) *scan.Assignment {
	out := &scan.Assignment{BufferedRouting: a.BufferedRouting}
	for _, g := range a.Control {
		out.Control = append(out.Control, scan.ControlGroup{
			ReusedFF: g.ReusedFF, TSVs: append([]netlist.SignalID(nil), g.TSVs...),
		})
	}
	for _, g := range a.Observe {
		out.Observe = append(out.Observe, scan.ObserveGroup{
			ReusedFF: g.ReusedFF, Ports: append([]int(nil), g.Ports...),
		})
	}
	return out
}

func TestMutationsAreCaught(t *testing.T) {
	in, res := certifiedPlan(t, 11)
	n := in.Netlist
	th := res.Options

	verify := func(asn *scan.Assignment) *Result {
		t.Helper()
		vres, err := Plan(in, asn, Options{Thresholds: &th})
		if err != nil {
			t.Fatal(err)
		}
		return vres
	}

	t.Run("baseline certifies", func(t *testing.T) {
		if v := verify(res.Assignment); !v.OK() {
			t.Fatalf("baseline must certify: %v", v.Violations)
		}
	})

	t.Run("empty group", func(t *testing.T) {
		m := clone(res.Assignment)
		m.Control = append(m.Control, scan.ControlGroup{ReusedFF: netlist.InvalidSignal})
		if v := verify(m); !hasCode(v.Violations, CodeEmptyGroup) {
			t.Errorf("want %s, got %v", CodeEmptyGroup, v.Violations)
		}
	})

	t.Run("wrong-type member", func(t *testing.T) {
		m := clone(res.Assignment)
		// A flip-flop is not an inbound TSV pad.
		m.Control[0].TSVs[0] = n.FlipFlops()[0]
		v := verify(m)
		if !hasCode(v.Violations, CodeBadMember) {
			t.Errorf("want %s, got %v", CodeBadMember, v.Violations)
		}
		if !hasCode(v.Violations, CodeUncovered) {
			t.Errorf("dropping the pad must also flag %s", CodeUncovered)
		}
	})

	t.Run("invalid signal id member", func(t *testing.T) {
		m := clone(res.Assignment)
		m.Control[0].TSVs[0] = netlist.SignalID(1 << 30)
		if v := verify(m); !hasCode(v.Violations, CodeBadMember) {
			t.Errorf("want %s, got %v", CodeBadMember, v.Violations)
		}
	})

	t.Run("duplicate TSV", func(t *testing.T) {
		m := clone(res.Assignment)
		tsv := m.Control[0].TSVs[0]
		m.Control = append(m.Control, scan.ControlGroup{ReusedFF: netlist.InvalidSignal, TSVs: []netlist.SignalID{tsv}})
		if v := verify(m); !hasCode(v.Violations, CodeDuplicate) {
			t.Errorf("want %s, got %v", CodeDuplicate, v.Violations)
		}
	})

	t.Run("dropped group uncovers TSVs", func(t *testing.T) {
		m := clone(res.Assignment)
		m.Control = m.Control[1:]
		if v := verify(m); !hasCode(v.Violations, CodeUncovered) {
			t.Errorf("want %s, got %v", CodeUncovered, v.Violations)
		}
	})

	t.Run("bad port index", func(t *testing.T) {
		m := clone(res.Assignment)
		m.Observe[0].Ports[0] = len(n.Outputs) + 5
		if v := verify(m); !hasCode(v.Violations, CodeBadMember) {
			t.Errorf("want %s, got %v", CodeBadMember, v.Violations)
		}
	})

	t.Run("non-DFF reuse", func(t *testing.T) {
		m := clone(res.Assignment)
		m.Control[0].ReusedFF = n.InboundTSVs()[0]
		if v := verify(m); !hasCode(v.Violations, CodeBadReuse) {
			t.Errorf("want %s, got %v", CodeBadReuse, v.Violations)
		}
	})

	t.Run("FF double use", func(t *testing.T) {
		m := clone(res.Assignment)
		var ff netlist.SignalID = netlist.InvalidSignal
		for _, g := range m.Control {
			if g.Reused() {
				ff = g.ReusedFF
				break
			}
		}
		if ff == netlist.InvalidSignal {
			t.Skip("plan reuses no control-side flip-flop")
		}
		m.Observe[0].ReusedFF = ff
		v := verify(m)
		if !hasCode(v.Violations, CodeFFDoubleUse) {
			t.Errorf("want %s, got %v", CodeFFDoubleUse, v.Violations)
		}
	})

	t.Run("all TSVs in one group breaks cap budget", func(t *testing.T) {
		m := clone(res.Assignment)
		var all []netlist.SignalID
		for _, g := range m.Control {
			all = append(all, g.TSVs...)
		}
		m.Control = []scan.ControlGroup{{ReusedFF: netlist.InvalidSignal, TSVs: all}}
		v := verify(m)
		if !hasCode(v.Violations, CodeCapBudget) {
			t.Errorf("want %s, got %v", CodeCapBudget, v.Violations)
		}
	})

	t.Run("tight distance threshold flags spread groups", func(t *testing.T) {
		tight := th
		tight.DistThUM = 1e-6 // nothing is this close
		foundShared := false
		for _, g := range res.Assignment.Control {
			if len(g.TSVs) >= 2 || g.Reused() {
				foundShared = true
			}
		}
		if !foundShared {
			t.Skip("plan has no shared control group")
		}
		vres, err := Plan(in, res.Assignment, Options{Thresholds: &tight})
		if err != nil {
			t.Fatal(err)
		}
		if !hasCode(vres.Violations, CodeDistance) {
			t.Errorf("want %s, got %v", CodeDistance, vres.Violations)
		}
	})

	t.Run("overlap ban flags overlapped plans", func(t *testing.T) {
		// Force heavy sharing on a small die so some cones overlap, then
		// verify against a contract that forbids overlap.
		loose := wcm.DefaultOptions()
		loose.DistThUM = math.Inf(1)
		res2, err := wcm.Run(in, loose)
		if err != nil {
			t.Fatal(err)
		}
		if res2.TotalOverlapEdges() == 0 {
			t.Skip("no overlap edges on this die")
		}
		banned := res2.Options
		banned.AllowOverlap = false
		vres, err := Plan(in, res2.Assignment, Options{Thresholds: &banned})
		if err != nil {
			t.Fatal(err)
		}
		// The plan may or may not have kept an overlapped pair in a final
		// clique; only demand a violation when it did. Re-verify under the
		// true contract to distinguish.
		trueRes, err := Plan(in, res2.Assignment, Options{Thresholds: &res2.Options})
		if err != nil {
			t.Fatal(err)
		}
		if !trueRes.OK() {
			t.Fatalf("plan must certify under its own contract: %v", trueRes.Violations)
		}
		_ = vres // exercised the path; presence of violations is die-dependent
	})
}

func TestAnchorAliasDetected(t *testing.T) {
	// Hand-build the alias: two observe members folded onto the same
	// driver signal. li.Run rejects exactly this pairing, so the verifier
	// must flag it even in structural-only mode.
	in := prep(t, 300, 12, 6, 6, 3)
	n := in.Netlist
	ports := n.OutboundTSVs()
	if len(ports) < 2 {
		t.Fatal("need two outbound ports")
	}
	asn := scan.FullWrap(n)
	// Merge the first two outbound singletons into one group, then alias
	// the second port's member onto the first port's signal by duplicating
	// the port index — structurally a duplicate; instead simulate an alias
	// via two distinct ports sharing a driver if the die has one.
	sigOf := map[netlist.SignalID][]int{}
	for _, p := range ports {
		sigOf[n.Outputs[p].Signal] = append(sigOf[n.Outputs[p].Signal], p)
	}
	for _, ps := range sigOf {
		if len(ps) >= 2 {
			asn = dropPorts(asn, ps[:2])
			asn.Observe = append(asn.Observe, scan.ObserveGroup{ReusedFF: netlist.InvalidSignal, Ports: ps[:2]})
			vres, err := Plan(in, asn, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !hasCode(vres.Violations, CodeAnchorAlias) {
				t.Fatalf("want %s, got %v", CodeAnchorAlias, vres.Violations)
			}
			return
		}
	}
	t.Skip("die has no two ports sharing a driver")
}

// dropPorts removes the given ports' singleton groups from a full wrap.
func dropPorts(a *scan.Assignment, ports []int) *scan.Assignment {
	drop := map[int]bool{}
	for _, p := range ports {
		drop[p] = true
	}
	out := clone(a)
	var keep []scan.ObserveGroup
	for _, g := range out.Observe {
		if len(g.Ports) == 1 && drop[g.Ports[0]] {
			continue
		}
		keep = append(keep, g)
	}
	out.Observe = keep
	return out
}

func TestSlackViolationsUnderTightenedContract(t *testing.T) {
	// Re-analyze the die at a barely-feasible clock so slack is scarce,
	// plan under a loose contract, then verify against a tight one: any
	// reuse the loose plan made must now break the slack codes.
	in := prep(t, 400, 20, 12, 12, 17)
	tight, err := sta.Analyze(in.Netlist, in.Lib, sta.Config{
		ClockPS:   in.Timing.CriticalPathPS() + 40,
		Placement: in.Placement,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Timing = tight
	loose := wcm.DefaultOptions()
	loose.SlackSpendFrac = math.Inf(1)
	loose.SlackThPS = math.Inf(-1)
	res, err := wcm.Run(in, loose)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReusedFFs == 0 {
		t.Skip("loose plan reused nothing; no slack contract to break")
	}
	strict := res.Options
	strict.SlackSpendFrac = 1e-9
	strict.SlackThPS = 1e9
	vres, err := Plan(in, res.Assignment, Options{Thresholds: &strict})
	if err != nil {
		t.Fatal(err)
	}
	c := codes(vres.Violations)
	if c[CodeControlSlack]+c[CodeObserveSlack]+c[CodeTapSlack] == 0 {
		t.Errorf("tightened slack contract must flag reuse: %v", vres.Violations)
	}
}

func TestPlanErrorsOnBadInput(t *testing.T) {
	in := prep(t, 300, 12, 6, 6, 5)
	asn := scan.FullWrap(in.Netlist)
	if _, err := Plan(wcm.Input{}, asn, Options{}); err == nil {
		t.Error("nil netlist must error")
	}
	if _, err := Plan(in, nil, Options{}); err == nil {
		t.Error("nil assignment must error")
	}
	th := wcm.DefaultOptions()
	noTiming := in
	noTiming.Timing = nil
	if _, err := Plan(noTiming, asn, Options{Thresholds: &th}); err == nil {
		t.Error("thresholds without timing must error")
	}
}

func TestSignoffRuns(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 9)
	res, err := wcm.Run(in, wcm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vres, err := Plan(in, res.Assignment, Options{Thresholds: &res.Options, Signoff: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(vres.SignoffWNSPS) {
		t.Error("signoff must record a WNS")
	}
	// At a 100 ns clock the die has enormous slack; the plan must pass.
	if hasCode(vres.Violations, CodeSignoff) {
		t.Errorf("signoff violation at a loose clock: %v", vres.Violations)
	}
}

func TestDeepModeMeasures(t *testing.T) {
	// Force overlap sharing, then demand deep mode records measurements
	// without turning advisories into violations.
	in := prep(t, 500, 16, 14, 14, 7)
	res, err := wcm.Run(in, wcm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vres, err := Plan(in, res.Assignment, Options{Thresholds: &res.Options, Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if vres.Deep == nil {
		t.Fatal("deep stats missing")
	}
	if !vres.OK() {
		t.Errorf("deep findings must stay warnings: %v", vres.Violations)
	}
	if vres.Deep.OverlapPairs > 0 && vres.Deep.SharedGates == 0 {
		t.Error("overlapping pairs recorded but no shared gates collected")
	}
}

// TestSignoffReportsUnbuildableView: when the plan's functional view
// cannot be built — an invalid plan, a placement of another netlist, a
// die already using a name the view generates — signoff reports a
// CodeSignoff violation instead of failing the verifier.
func TestSignoffReportsUnbuildableView(t *testing.T) {
	in := prep(t, 200, 10, 4, 3, 5)
	other := prep(t, 200, 10, 4, 3, 6)
	taken := in
	taken.Netlist = in.Netlist.Clone()
	taken.Netlist.MustAddGate(netlist.GateInput, scan.TestEnableName)
	pl, err := place.Place(taken.Netlist, place.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	taken.Placement = pl
	if taken.Timing, err = sta.Analyze(taken.Netlist, taken.Lib, sta.Config{ClockPS: 1e5, Placement: pl}); err != nil {
		t.Fatal(err)
	}
	invalid := scan.FullWrap(in.Netlist)
	invalid.Control = append(invalid.Control, scan.ControlGroup{ReusedFF: netlist.InvalidSignal})
	foreign := in
	foreign.Placement = other.Placement

	for _, c := range []struct {
		name string
		in   wcm.Input
		asn  *scan.Assignment
	}{
		{"invalid plan", in, invalid},
		{"placement of another netlist", foreign, scan.FullWrap(in.Netlist)},
		{"test_en taken", taken, scan.FullWrap(taken.Netlist)},
	} {
		vres, err := Plan(c.in, c.asn, Options{Signoff: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		found := false
		for _, v := range vres.Violations {
			found = found || (v.Code == CodeSignoff && strings.HasPrefix(v.Detail, "plan cannot be materialized"))
		}
		if !found {
			t.Errorf("%s: no %q signoff violation in %v", c.name, "plan cannot be materialized", vres.Violations)
		}
	}
}
