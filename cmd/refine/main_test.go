package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"wcm3d"
	"wcm3d/internal/service"
)

// TestRunTextOutput exercises the full CLI path on a small paper die and
// holds the text report to its contract: a greedy baseline line, a refined
// line, and one statistics line per solver.
func TestRunTextOutput(t *testing.T) {
	var buf bytes.Buffer
	ro := wcm3d.RefineOptions{Seed: 1, Budget: 2 * time.Second}
	err := run(&buf, "b11/0", "", "ours", "tight", ro, "", false)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "greedy plan adds") {
		t.Fatalf("missing greedy baseline line:\n%s", out)
	}
	if !strings.Contains(out, "refined:") {
		t.Fatalf("missing refined line:\n%s", out)
	}
	if !strings.Contains(out, "lower bound on refine's model:") {
		t.Fatalf("missing lower-bound line:\n%s", out)
	}
	for _, s := range []string{"local", "anneal", "lns"} {
		if !strings.Contains(out, s) {
			t.Fatalf("missing %s statistics line:\n%s", s, out)
		}
	}
}

// TestRunJSONSchema asserts -json emits the service RefineReport schema and
// that the refined plan is never worse than greedy.
func TestRunJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	ro := wcm3d.RefineOptions{Seed: 1, Budget: 2 * time.Second}
	err := run(&buf, "b11/0", "", "ours", "tight", ro, "local", true)
	if err != nil {
		t.Fatal(err)
	}
	var rep service.RefineReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not a RefineReport: %v\n%s", err, buf.String())
	}
	if rep.GreedyCells <= 0 {
		t.Fatalf("greedy cells = %d", rep.GreedyCells)
	}
	if rep.AdditionalCells > rep.GreedyCells {
		t.Fatalf("refined plan is worse than greedy: %d > %d", rep.AdditionalCells, rep.GreedyCells)
	}
	if len(rep.Strategies) != 1 || rep.Strategies[0].Name != "local" {
		t.Fatalf("strategy subset not honored: %+v", rep.Strategies)
	}
	if rep.LowerBound > rep.AdditionalCells || rep.Gap != rep.AdditionalCells-rep.LowerBound {
		t.Fatalf("bound %d, gap %d inconsistent with %d cells", rep.LowerBound, rep.Gap, rep.AdditionalCells)
	}
}

// TestRunRejectsThresholdFreeMethods holds the CLI to its documented
// refusal: li and fullwrap carry no sharing model to refine.
func TestRunRejectsThresholdFreeMethods(t *testing.T) {
	for _, m := range []string{"li", "fullwrap"} {
		var buf bytes.Buffer
		ro := wcm3d.RefineOptions{Seed: 1, Budget: time.Second}
		if err := run(&buf, "b11/0", "", m, "tight", ro, "", false); err == nil {
			t.Fatalf("method %s was accepted", m)
		}
	}
}

// TestParseStrategies pins the CLI's list splitting: blanks drop, spacing
// is forgiven, and semantics (dedupe, unknown names) are left to the
// portfolio.
func TestParseStrategies(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"local", []string{"local"}},
		{"local, lns", []string{"local", "lns"}},
		{" local ,, anneal ,", []string{"local", "anneal"}},
		{"local,local", []string{"local", "local"}}, // dedupe is the portfolio's job
	}
	for _, tc := range cases {
		if got := parseStrategies(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseStrategies(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRunStrategyList pins the end-to-end rules: duplicate names are
// accepted (collapsed downstream) and unknown names surface the
// portfolio's error naming the known set.
func TestRunStrategyList(t *testing.T) {
	t.Run("duplicates collapse", func(t *testing.T) {
		var buf bytes.Buffer
		ro := wcm3d.RefineOptions{Seed: 1, Budget: 2 * time.Second}
		if err := run(&buf, "b11/0", "", "ours", "tight", ro, "local,local", true); err != nil {
			t.Fatal(err)
		}
		var rep service.RefineReport
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Strategies) != 1 || rep.Strategies[0].Name != "local" {
			t.Fatalf("duplicate names did not collapse: %+v", rep.Strategies)
		}
	})
	t.Run("unknown name errors", func(t *testing.T) {
		var buf bytes.Buffer
		ro := wcm3d.RefineOptions{Seed: 1, Budget: time.Second}
		err := run(&buf, "b11/0", "", "ours", "tight", ro, "bogus", false)
		if err == nil || !strings.Contains(err.Error(), `unknown strategy "bogus"`) {
			t.Fatalf("err = %v, want unknown-strategy error", err)
		}
	})
}
