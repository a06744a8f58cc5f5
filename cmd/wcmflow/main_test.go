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

	"wcm3d/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRunCompareSmallDie(t *testing.T) {
	if err := run(io.Discard, "b11/0", "", "ours", "tight", 1, true, true, "reduced", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleMethodNoATPG(t *testing.T) {
	if err := run(io.Discard, "b11/3", "", "agrawal", "loose", 1, false, false, "reduced", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "", "", "ours", "tight", 1, false, true, "full", false); err == nil {
		t.Error("neither profile nor netlist must error")
	}
	if err := run(io.Discard, "b11/0", "", "mystery", "tight", 1, false, false, "full", false); err == nil {
		t.Error("unknown method must error")
	}
	if err := run(io.Discard, "b11/0", "", "ours", "sideways", 1, false, false, "full", false); err == nil {
		t.Error("unknown timing must error")
	}
	if err := run(io.Discard, "b11/0", "", "ours", "tight", 1, false, false, "maximal", false); err == nil {
		t.Error("unknown budget must error")
	}
}

// TestRunRejectsProfileAndNetlist pins the flag contract shared with
// refine, replan and verify: naming both die sources is an error, not a
// silent preference for -profile.
func TestRunRejectsProfileAndNetlist(t *testing.T) {
	err := run(io.Discard, "b11/0", "die.bench", "ours", "tight", 1, false, false, "reduced", false)
	if err == nil || !strings.Contains(err.Error(), "not both") {
		t.Fatalf("err = %v, want a not-both error", err)
	}
}

// TestRunJSONGolden pins the -json output to the shared service schema: the
// flow is deterministic in (profile, seed, budget), so the report must
// match byte for byte. Regenerate with `go test ./cmd/wcmflow -update`.
func TestRunJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "b11/0", "", "ours", "tight", 1, false, true, "reduced", true); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wcmflow_b11_0.golden.json")
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
		t.Errorf("-json output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
	// The output must parse back into the service schema.
	var reports []*service.Report
	if err := json.Unmarshal(buf.Bytes(), &reports); err != nil {
		t.Fatalf("output is not the service schema: %v", err)
	}
	if len(reports) != 1 || reports[0].Method != "ours" || reports[0].StuckAt == nil {
		t.Errorf("unexpected report: %+v", reports)
	}
}
