package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"time"

	"wcm3d/internal/experiments"
	"wcm3d/internal/service"
	"wcm3d/internal/tsvrepair"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRunTable2(t *testing.T) {
	// Table II touches only the generator: fast and fully deterministic.
	if err := run(io.Discard, 2, 0, false, false, false, 0, false, false, "b11", "16,32,64", 1, "reduced", false, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunShortFlagDefaults(t *testing.T) {
	if err := run(io.Discard, 2, 0, false, false, false, 0, false, false, "", "16,32,64", 1, "full", true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunTAMSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0, 0, true, false, false, 0, false, false, "b11", "4,8", 1, "reduced", false, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "stack") || !strings.Contains(out, "b11") {
		t.Errorf("missing sweep table:\n%s", out)
	}
	if !strings.Contains(out, "[TAM widths completed") {
		t.Errorf("missing timing note:\n%s", out)
	}
}

// TestRunRefineGap runs the refinement-gap experiment on the smallest
// family with a short per-die budget and holds the output to its contract:
// refined cells never exceed greedy cells, nor fall below the bound.
func TestRunRefineGap(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0, 0, false, false, true, 500*time.Millisecond, false, false, "b11", "16", 1, "reduced", false, true); err != nil {
		t.Fatal(err)
	}
	var reports []service.ExperimentReport
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("output is not the service schema: %v", err)
	}
	if len(reports) != 1 || reports[0].Experiment != "refine_gap" {
		t.Fatalf("unexpected envelope: %+v", reports)
	}
	raw, _ := json.Marshal(reports[0].Rows)
	var rows []experiments.RefineGapRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.RefinedCells > r.GreedyCells {
			t.Errorf("%s: refined %d > greedy %d", r.Die, r.RefinedCells, r.GreedyCells)
		}
		if r.Saved != r.GreedyCells-r.RefinedCells {
			t.Errorf("%s: saved %d inconsistent", r.Die, r.Saved)
		}
		if r.LowerBound > r.RefinedCells {
			t.Errorf("%s: bound %d above the refined plan's %d cells", r.Die, r.LowerBound, r.RefinedCells)
		}
	}
}

// TestRunBatchSweep pushes one family through the batch sweep and pins
// the envelope plus the per-row invariants: every die solved, plan
// numbers present, stage timings recorded.
func TestRunBatchSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0, 0, false, false, false, 0, true, false, "b11", "16", 1, "reduced", false, true); err != nil {
		t.Fatal(err)
	}
	var reports []service.ExperimentReport
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("output is not the service schema: %v", err)
	}
	if len(reports) != 1 || reports[0].Experiment != "batch_sweep" {
		t.Fatalf("unexpected envelope: %+v", reports)
	}
	raw, _ := json.Marshal(reports[0].Rows)
	var rows []batchSweepRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want the 4 b11 dies", len(rows))
	}
	for _, r := range rows {
		if !strings.HasPrefix(r.Die, "b11/") {
			t.Errorf("unexpected die %q", r.Die)
		}
		if r.ReusedFFs == 0 && r.AdditionalCells == 0 {
			t.Errorf("%s: no plan numbers", r.Die)
		}
		if r.PrepareMS <= 0 || r.SolveMS <= 0 {
			t.Errorf("%s: missing stage timings (%v, %v)", r.Die, r.PrepareMS, r.SolveMS)
		}
	}
}

// TestRunBatchSweepText checks the human-readable rendering.
func TestRunBatchSweepText(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0, 0, false, false, false, 0, true, false, "b11", "16", 1, "reduced", false, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Batch sweep", "b11/Die0", "Total", "pipeline wall clock", "[Batch sweep completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRunReplanSweep runs the replan-speedup experiment on the smallest
// family and holds it to the differential contract columns: every row
// equal and verified, every ratio positive.
func TestRunReplanSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 0, 0, false, false, false, 0, false, true, "b11", "16", 1, "reduced", false, true); err != nil {
		t.Fatal(err)
	}
	var reports []service.ExperimentReport
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("output is not the service schema: %v", err)
	}
	if len(reports) != 1 || reports[0].Experiment != "replan_speedup" {
		t.Fatalf("unexpected envelope: %+v", reports)
	}
	raw, _ := json.Marshal(reports[0].Rows)
	var rows []tsvrepair.SpeedupRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want the 4 b11 dies", len(rows))
	}
	for _, r := range rows {
		if !r.Equal || !r.Verified {
			t.Errorf("%s: differential contract broken: %+v", r.Die, r)
		}
		if r.Ratio <= 0 || r.ReplanMS <= 0 || r.RerunMS <= 0 {
			t.Errorf("%s: implausible timings: %+v", r.Die, r)
		}
	}
}

// TestRunJSONGolden pins the -json envelope schema. Table II is pure
// netlist statistics, so the bytes are deterministic across runs.
func TestRunJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 2, 0, false, false, false, 0, false, false, "b11", "16,32,64", 1, "reduced", false, true); err != nil {
		t.Fatal(err)
	}
	var reports []service.ExperimentReport
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("output is not the service schema: %v", err)
	}
	if len(reports) != 1 || reports[0].Experiment != "table2" {
		t.Fatalf("unexpected envelope: %+v", reports)
	}

	golden := filepath.Join("testdata", "tables_table2_b11.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output drifted from %s (rerun with -update if intentional)\ngot:\n%s", golden, buf.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(io.Discard, 0, 0, false, false, false, 0, false, false, "", "16", 1, "full", false, false); err == nil {
		t.Error("no experiment selected must error")
	}
	if err := run(io.Discard, 2, 0, false, false, false, 0, false, false, "b99", "16", 1, "full", false, false); err == nil || !strings.Contains(err.Error(), "unknown circuit") {
		t.Errorf("unknown circuit: %v", err)
	}
	if err := run(io.Discard, 2, 0, false, false, false, 0, false, false, "", "16", 1, "warp", false, false); err == nil || !strings.Contains(err.Error(), "unknown budget") {
		t.Errorf("unknown budget: %v", err)
	}
	if err := run(io.Discard, 9, 0, false, false, false, 0, false, false, "", "16", 1, "full", false, false); err == nil {
		t.Error("unknown table number must error")
	}
	if err := run(io.Discard, 0, 0, true, false, false, 0, false, false, "b11", "4,x", 1, "full", false, false); err == nil || !strings.Contains(err.Error(), "bad TAM width") {
		t.Errorf("bad widths: %v", err)
	}
}
