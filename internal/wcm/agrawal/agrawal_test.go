package agrawal

import (
	"math"
	"testing"

	"wcm3d/internal/cells"
	"wcm3d/internal/netgen"
	"wcm3d/internal/place"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

func TestOptionsShape(t *testing.T) {
	opts := Options(120)
	if opts.AllowOverlap {
		t.Error("Agrawal never shares across overlapped cones")
	}
	if opts.Order != wcm.OrderInboundFirst {
		t.Errorf("order = %v, want inbound-first", opts.Order)
	}
	if opts.Timing != wcm.TimingCapOnly {
		t.Errorf("timing = %v, want cap-only", opts.Timing)
	}
	if !math.IsInf(opts.DistThUM, 1) {
		t.Error("Agrawal has no distance threshold")
	}
	if opts.CapThFF != 120 {
		t.Errorf("cap_th = %v, want 120", opts.CapThFF)
	}
}

func TestRunAndOrderVariant(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{
		Gates: 250, FFs: 12, PIs: 5, POs: 3, InboundTSVs: 8, OutboundTSVs: 12, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default45nm()
	pl, err := place.Place(n, place.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	timing, err := sta.Analyze(n, lib, sta.Config{ClockPS: 1e5, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	in := wcm.Input{Netlist: n, Lib: lib, Placement: pl, Timing: timing}

	res, err := Run(in, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Phases[0].Inbound {
		t.Error("Run must process inbound first")
	}
	if !res.Assignment.Covered(n) {
		t.Error("plan must cover every TSV")
	}
	if res.TotalOverlapEdges() != 0 {
		t.Error("Agrawal graphs must carry no overlap edges")
	}

	opts := Options(150)
	opts.Order = wcm.OrderOutboundFirst
	alt, err := wcm.Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if alt.Phases[0].Inbound {
		t.Error("Options.Order = outbound-first must process outbound first")
	}
}
