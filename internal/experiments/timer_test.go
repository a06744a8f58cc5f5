package experiments

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

// TestDieTimerMatchesMaterialized holds the die's cached timer — the one
// projectPartial, CheckTiming and PrepareNetlist's probe time with — to
// ApplyFunctionalMode + sta.Analyze, bit for bit on every signal, for the
// plans TestTimeFunctionalModeMatchesMaterialized times: full-wrap (and
// the clock probe), Agrawal and ours under both scenarios, and each run's
// phase-one partial. One timer serves every plan of a die.
func TestDieTimerMatchesMaterialized(t *testing.T) {
	for _, p := range functionalProfiles() {
		d, err := PrepareDie(p, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		timer := d.functionalTimer()
		check := func(label string, asn *scan.Assignment) {
			t.Helper()
			want, err := materialized(d, asn, d.ClockPS)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", p.Name(), label, err)
			}
			got, err := d.functionalTimer().Time(asn, d.ClockPS)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name(), label, err)
			}
			if diff := sameBits(got, want); diff != "" {
				t.Errorf("%s %s: %s", p.Name(), label, diff)
			}
		}

		fw := scan.FullWrap(d.Netlist)
		check("full-wrap", fw)
		probe, err := d.functionalTimer().Time(fw, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		cp := probe.CriticalPathPS()
		if clock := cp + 30 + 0.05*cp; math.Float64bits(clock) != math.Float64bits(d.ClockPS) {
			t.Errorf("%s: clock %v, the timer's probe gives %v", p.Name(), d.ClockPS, clock)
		}

		for _, tight := range []bool{false, true} {
			for _, m := range []struct {
				name string
				opts wcm.Options
			}{{"agrawal", AgrawalOptions(d, tight)}, {"ours", OurOptions(d, tight)}} {
				label := fmt.Sprintf("%s/tight=%v", m.name, tight)
				in := d.Input()
				refresh := in.RefreshTiming
				in.RefreshTiming = func(partial *scan.Assignment) (*sta.Result, error) {
					check(label+" phase-one partial", withFullWrap(d.Netlist, partial))
					return refresh(partial)
				}
				res, err := wcm.Run(in, m.opts)
				if err != nil {
					t.Fatalf("%s %s: %v", p.Name(), label, err)
				}
				check(label, res.Assignment)
			}
		}
		if d.functionalTimer() != timer {
			t.Errorf("%s: the die rebuilt its timer without an edit", p.Name())
		}
	}
}

// TestDieTimerRebuildsAfterEdit edits a prepared die in place after its
// timer is built: a gate that loads a TSV's driver, and an output port
// moved from the primary outputs to the outbound TSVs (which changes no
// gate). Each time the die must build a new timer, and time the edited
// die bit for bit like the materialized view.
func TestDieTimerRebuildsAfterEdit(t *testing.T) {
	d, err := PrepareDie(netgen.ITC99Circuit("b12")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Netlist
	edits := []struct {
		name string
		edit func() error
	}{
		{"gate added", func() error {
			drv := n.Outputs[n.OutboundTSVs()[0]].Signal
			if _, err := n.AddGate(netlist.GateBuf, "extra_load", drv); err != nil {
				return err
			}
			d.Placement.Coords = append(d.Placement.Coords, place.Point{X: 0, Y: 0})
			return nil
		}},
		{"port class changed", func() error {
			return n.SetPortClass(n.PrimaryOutputs()[0], netlist.PortTSVOut)
		}},
	}
	for _, e := range edits {
		before := d.functionalTimer()
		if err := e.edit(); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if d.functionalTimer() == before {
			t.Errorf("%s: the die kept its timer", e.name)
		}
		asn := scan.FullWrap(n)
		want, err := materialized(d, asn, d.ClockPS)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.functionalTimer().Time(asn, d.ClockPS)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if diff := sameBits(got, want); diff != "" {
			t.Errorf("%s: %s", e.name, diff)
		}
	}
}

// TestDieTimerConcurrentFirstUse times one die from several goroutines at
// once, through RefreshTiming and CheckTiming, before the die has a timer:
// the lazy build itself races (go test -race). Every call must agree with
// the same call made alone.
func TestDieTimerConcurrentFirstUse(t *testing.T) {
	prepared, err := PrepareDie(netgen.ITC99Circuit("b12")[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcm.Run(prepared.Input(), OurOptions(prepared, true))
	if err != nil {
		t.Fatal(err)
	}
	partial := &scan.Assignment{Control: res.Assignment.Control, BufferedRouting: true}
	wantRefresh, err := prepared.projectPartial(partial)
	if err != nil {
		t.Fatal(err)
	}
	_, wantWNS, err := CheckTiming(prepared, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}

	// A Die assembled as a literal, as a caller outside this package
	// builds one: no timer until the first timing call.
	d := &Die{
		Profile: prepared.Profile, Netlist: prepared.Netlist, Lib: prepared.Lib,
		Placement: prepared.Placement, ClockPS: prepared.ClockPS,
		MarginPS: prepared.MarginPS, Timing: prepared.Timing,
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got, err := d.Input().RefreshTiming(partial)
			if err == nil {
				if diff := sameBits(got, wantRefresh); diff != "" {
					err = fmt.Errorf("RefreshTiming differs from the call made alone: %s", diff)
				}
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, wns, err := CheckTiming(d, res.Assignment)
			if err == nil && math.Float64bits(wns) != math.Float64bits(wantWNS) {
				err = fmt.Errorf("CheckTiming WNS %v, alone %v", wns, wantWNS)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
