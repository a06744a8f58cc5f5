package wcm3d_test

// Integration tests against the public facade — the same surface the
// examples and downstream users consume.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wcm3d"
)

func prepared(t *testing.T) *wcm3d.Die {
	t.Helper()
	d, err := wcm3d.PrepareDie(wcm3d.CircuitProfiles("b12")[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProfilesSurface(t *testing.T) {
	if got := len(wcm3d.ITC99Profiles()); got != 24 {
		t.Errorf("profiles = %d, want 24", got)
	}
	if got := len(wcm3d.CircuitNames()); got != 6 {
		t.Errorf("circuits = %d, want 6", got)
	}
	if wcm3d.CircuitProfiles("nope") != nil {
		t.Error("unknown circuit must return nil")
	}
	if err := wcm3d.DefaultLibrary().Validate(); err != nil {
		t.Errorf("default library invalid: %v", err)
	}
}

func TestMinimizeAllMethods(t *testing.T) {
	d := prepared(t)
	nTSVs := len(d.Netlist.InboundTSVs()) + len(d.Netlist.OutboundTSVs())
	var cells = map[wcm3d.Method]int{}
	for _, m := range []wcm3d.Method{
		wcm3d.MethodFullWrap, wcm3d.MethodLi, wcm3d.MethodAgrawal, wcm3d.MethodOurs,
	} {
		res, err := wcm3d.Minimize(d, m, wcm3d.LooseTiming)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := res.Assignment.Validate(d.Netlist); err != nil {
			t.Fatalf("%v produced invalid plan: %v", m, err)
		}
		if !res.Assignment.Covered(d.Netlist) {
			t.Errorf("%v does not cover every TSV", m)
		}
		cells[m] = res.AdditionalCells
	}
	// The historical progression must hold: full wrap >= Li >= Agrawal,
	// and ours at least as good as the one-shot baseline.
	if cells[wcm3d.MethodFullWrap] != nTSVs {
		t.Errorf("full wrap cells = %d, want %d", cells[wcm3d.MethodFullWrap], nTSVs)
	}
	if cells[wcm3d.MethodLi] > cells[wcm3d.MethodFullWrap] {
		t.Error("Li must not exceed full wrap")
	}
	if cells[wcm3d.MethodAgrawal] > cells[wcm3d.MethodLi] {
		t.Error("multi-TSV sharing (Agrawal) must not lose to one-shot reuse (Li)")
	}
	if cells[wcm3d.MethodOurs] > cells[wcm3d.MethodLi] {
		t.Error("ours must not lose to the one-shot baseline")
	}
}

func TestMinimizeUnknownMethod(t *testing.T) {
	d := prepared(t)
	if _, err := wcm3d.Minimize(d, wcm3d.Method(99), wcm3d.TightTiming); err == nil {
		t.Error("unknown method must error")
	}
}

func TestTightTimingNeverViolates(t *testing.T) {
	d := prepared(t)
	res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
	if err != nil {
		t.Fatal(err)
	}
	viol, wns, err := wcm3d.CheckTiming(d, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if viol {
		t.Errorf("ours under tight timing violates (wns %.1f)", wns)
	}
}

func TestEvaluateRoundTrip(t *testing.T) {
	d := prepared(t)
	res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := wcm3d.EvaluateStuckAt(d, res.Assignment, wcm3d.ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if sa.Coverage < 0.85 || sa.Patterns == 0 {
		t.Errorf("stuck-at grade implausible: %+v", sa)
	}
	tr, err := wcm3d.EvaluateTransition(d, res.Assignment, wcm3d.ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Coverage <= 0 || tr.Patterns == 0 {
		t.Errorf("transition grade implausible: %+v", tr)
	}
	// Transition tests are two-vector: typically more patterns.
	if tr.Patterns < sa.Patterns {
		t.Logf("note: transition patterns %d < stuck-at %d (unusual but possible)", tr.Patterns, sa.Patterns)
	}
}

func TestParseAndPrepareCustomDie(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
TSV_IN(t0)
TSV_IN(t1)
q0 = DFF(n2)
q1 = DFF(n3)
n1 = AND(a, t0)
n2 = XOR(n1, q1)
n3 = NOR(t1, b)
n4 = OR(n2, n3)
OUTPUT(z) = n4
TSV_OUT(u0) = n1
TSV_OUT(u1) = n3
`
	n, err := wcm3d.ParseNetlist("api", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := wcm3d.PrepareParsed(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.LooseTiming)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Covered(d.Netlist) {
		t.Error("custom die not fully covered")
	}
	sa, err := wcm3d.EvaluateStuckAt(d, res.Assignment, wcm3d.ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if sa.Coverage < 0.9 {
		t.Errorf("tiny wrapped die should test nearly completely, got %.3f", sa.Coverage)
	}
}

func TestOptionBuildersExposed(t *testing.T) {
	d := prepared(t)
	opts := wcm3d.OurOptions(d, wcm3d.TightTiming)
	opts.AllowOverlap = false
	res, err := wcm3d.MinimizeWith(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOverlapEdges() != 0 {
		t.Error("overlap disabled but overlap edges counted")
	}
	agr, ok := wcm3d.MethodOptions(d, wcm3d.MethodAgrawal, wcm3d.LooseTiming)
	if !ok || agr.AllowOverlap {
		t.Errorf("Agrawal options: ok=%v AllowOverlap=%v, want options without overlap", ok, agr.AllowOverlap)
	}
	for _, m := range []wcm3d.Method{wcm3d.MethodLi, wcm3d.MethodFullWrap} {
		if _, ok := wcm3d.MethodOptions(d, m, wcm3d.TightTiming); ok {
			t.Errorf("%v has no threshold contract, yet MethodOptions reports options", m)
		}
	}
}

func TestMethodAndModeStrings(t *testing.T) {
	if wcm3d.MethodOurs.String() != "ours" || wcm3d.MethodAgrawal.String() != "agrawal" ||
		wcm3d.MethodLi.String() != "li" || wcm3d.MethodFullWrap.String() != "full-wrap" {
		t.Error("method names wrong")
	}
	if wcm3d.TightTiming.String() != "tight" || wcm3d.LooseTiming.String() != "loose" {
		t.Error("mode names wrong")
	}
}

func TestPartitionBondRoundTrip(t *testing.T) {
	mono, err := wcm3d.GenerateDie(wcm3d.Profile{
		Circuit: "mono", Gates: 300, ScanFFs: 20, PIs: 6, POs: 4,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcm3d.PartitionNetlist(mono, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dies) != 2 || res.CutNets == 0 {
		t.Fatalf("partition: %d dies, %d cut nets", len(res.Dies), res.CutNets)
	}
	stack, err := wcm3d.BondStack("stack", res.Dies)
	if err != nil {
		t.Fatal(err)
	}
	if len(stack.InboundTSVs()) != 0 {
		t.Error("fully bonded stack must have no floating pads")
	}
}

func TestBuildScanChainsFacade(t *testing.T) {
	d := prepared(t)
	res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := wcm3d.BuildScanChains(d, res.Assignment, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := len(d.Netlist.FlipFlops()) + res.AdditionalCells
	if plan.NumCells() != want {
		t.Errorf("chain cells = %d, want %d (FFs + dedicated cells)", plan.NumCells(), want)
	}
	if plan.TestCycles(100) <= 0 {
		t.Error("test cycles must be positive")
	}
}

func TestDiagnoseRoundTrip(t *testing.T) {
	d, err := wcm3d.PrepareDie(wcm3d.CircuitProfiles("b11")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.LooseTiming)
	if err != nil {
		t.Fatal(err)
	}
	patterns, grade, err := wcm3d.GeneratePatterns(d, plan.Assignment, wcm3d.ReducedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if grade.Coverage < 0.85 || len(patterns) == 0 {
		t.Fatalf("test set implausible: %d patterns, %.3f coverage", len(patterns), grade.Coverage)
	}
	// Inject a detectable defect, diagnose, expect an exact match
	// containing the truth.
	var truth wcm3d.Fault
	var syn *wcm3d.Syndrome
	for _, f := range d.StuckAt {
		s, err := wcm3d.SimulateDefect(d, plan.Assignment, f, patterns)
		if err != nil {
			t.Fatal(err)
		}
		if s.FailCount() > 0 {
			truth, syn = f, s
			break
		}
	}
	if syn == nil {
		t.Fatal("no detectable defect found")
	}
	ranked, err := wcm3d.Diagnose(d, plan.Assignment, patterns, syn)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 || !ranked[0].Exact() {
		t.Fatal("diagnosis found no exact explanation")
	}
	foundTruth := false
	for _, c := range ranked {
		if !c.Exact() {
			break
		}
		if c.Fault == truth {
			foundTruth = true
		}
	}
	if !foundTruth {
		t.Error("the injected defect is not among the exact matches")
	}
	if _, err := wcm3d.SuspectTSVs(d, plan.Assignment, ranked, 3); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleFacade(t *testing.T) {
	var stack []wcm3d.StackDie
	for _, p := range wcm3d.CircuitProfiles("b11")[:2] {
		d, err := wcm3d.PrepareDie(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := wcm3d.EvaluateStuckAt(d, res.Assignment, wcm3d.ReducedBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		designs, err := wcm3d.EnumerateWrapperDesigns(d, res.Assignment, tb.Patterns, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(designs) == 0 || designs[0].Width != 1 {
			t.Fatalf("Pareto frontier must start at one wire: %+v", designs)
		}
		// Names left empty to exercise the profile-name default.
		stack = append(stack, wcm3d.StackDie{
			Die: d, Assignment: res.Assignment, Patterns: tb.Patterns,
		})
	}
	sched, err := wcm3d.Schedule(stack, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(); err != nil {
		t.Error(err)
	}
	if sched.MakespanCycles <= 0 || sched.MakespanCycles > sched.SerialCycles {
		t.Errorf("makespan %d vs serial %d", sched.MakespanCycles, sched.SerialCycles)
	}
	names := map[string]bool{}
	for _, sl := range sched.Slots {
		names[sl.Die] = true
	}
	if !names["b11/Die0"] || !names["b11/Die1"] {
		t.Errorf("slots not named after profiles: %v", names)
	}

	if _, err := wcm3d.Schedule(stack, 0); err == nil {
		t.Error("zero width must error")
	}
	if _, err := wcm3d.Schedule([]wcm3d.StackDie{{}}, 8); err == nil {
		t.Error("stack entry without a die must error")
	}
}

// TestLoadDie drives the CLIs' shared die loader over every source
// combination: the error texts are part of the CLI contract, and spare
// sites appear exactly when a non-zero spec asks for them.
func TestLoadDie(t *testing.T) {
	src := `
INPUT(a)
TSV_IN(t0)
q0 = DFF(n1)
n1 = AND(a, t0)
n2 = OR(n1, q0)
OUTPUT(z) = n2
TSV_OUT(u0) = n1
`
	path := filepath.Join(t.TempDir(), "tiny.bench")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	spares := wcm3d.SpareSpec{Inbound: 1, Outbound: 1}
	cases := []struct {
		name, profile, path string
		spares              wcm3d.SpareSpec
		wantName, wantErr   string
	}{
		{name: "both", profile: "b11/0", path: path, wantErr: "pass -profile or -netlist, not both"},
		{name: "neither", wantErr: "pass -profile or -netlist"},
		{name: "profile", profile: "b11/0", wantName: "b11/Die0"},
		{name: "profile+spares", profile: "b11/0", spares: spares, wantName: "b11/Die0"},
		{name: "bench", path: path, wantName: strings.TrimSuffix(path, ".bench")},
		{name: "bench+spares", path: path, spares: spares, wantName: strings.TrimSuffix(path, ".bench")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, name, err := wcm3d.LoadDie(tc.profile, tc.path, 1, tc.spares)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if name != tc.wantName {
				t.Errorf("name = %q, want %q", name, tc.wantName)
			}
			_, hasIn := d.Netlist.SignalByName("spare_in0")
			hasOut := false
			for _, o := range d.Netlist.Outputs {
				hasOut = hasOut || o.Name == "spare_out0"
			}
			want := tc.spares != (wcm3d.SpareSpec{})
			if hasIn != want || hasOut != want {
				t.Errorf("spare sites in=%v out=%v, want %v", hasIn, hasOut, want)
			}
		})
	}
}

// TestSuspectTSVsNamesInboundTSV checks that a ranked fault inside an
// inbound TSV's fan-out cone implicates that TSV.
func TestSuspectTSVsNamesInboundTSV(t *testing.T) {
	d, err := wcm3d.PrepareDie(wcm3d.CircuitProfiles("b11")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Netlist
	tsv := n.InboundTSVs()[0]
	cone := n.FanoutCone(tsv)
	var ranked []wcm3d.DiagnosisCandidate
	for _, f := range d.StuckAt {
		if f.Gate != tsv && cone.Has(f.Gate) {
			ranked = append(ranked, wcm3d.DiagnosisCandidate{Fault: f, Matched: 1})
			break
		}
	}
	if len(ranked) == 0 {
		t.Fatalf("no fault in the fan-out cone of %s", n.NameOf(tsv))
	}
	suspects, err := wcm3d.SuspectTSVs(d, plan.Assignment, ranked, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range suspects {
		if s == n.NameOf(tsv) {
			return
		}
	}
	t.Errorf("suspects = %v, want %s among them", suspects, n.NameOf(tsv))
}

// TestPrepareDieWithZeroSparesMatchesPrepareDie checks that a spared
// preparation with no spare sites is the plain preparation, field for
// field, fault lists included.
func TestPrepareDieWithZeroSparesMatchesPrepareDie(t *testing.T) {
	for _, c := range []string{"b11", "b12"} {
		for _, p := range wcm3d.CircuitProfiles(c) {
			want, err := wcm3d.PrepareDie(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wcm3d.PrepareDieWithSpares(p, 1, wcm3d.SpareSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: PrepareDieWithSpares(SpareSpec{}) differs from PrepareDie (stuck-at %d vs %d, transition %d vs %d)",
					p.Name(), len(got.StuckAt), len(want.StuckAt), len(got.Transition), len(want.Transition))
			}
		}
	}
}

// TestPreparedDieRoundTrip writes a prepared die, its repeaters fbuf0,
// fbuf1, ... included, to .bench, parses it back and prepares it again:
// the second repeater pass must take names the die leaves free.
func TestPreparedDieRoundTrip(t *testing.T) {
	p, err := wcm3d.ProfileByName("b11/0")
	if err != nil {
		t.Fatal(err)
	}
	d, err := wcm3d.PrepareDie(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Netlist.Write(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := wcm3d.ParseNetlist(d.Netlist.Name, &buf)
	if err != nil {
		t.Fatal(err)
	}
	parsed := n.NumGates()
	if _, ok := n.SignalByName("fbuf0"); !ok {
		t.Fatal("the prepared die has no repeater fbuf0")
	}
	d2, err := wcm3d.PrepareParsed(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Netlist.NumGates() == parsed {
		t.Fatal("the re-placed die needed no repeaters")
	}
	for i := parsed; i < d2.Netlist.NumGates(); i++ {
		name := d2.Netlist.NameOf(wcm3d.SignalID(i))
		if _, taken := d.Netlist.SignalByName(name); taken || !strings.HasPrefix(name, "fbuf") {
			t.Errorf("repeater %d named %q", i, name)
		}
	}
}
