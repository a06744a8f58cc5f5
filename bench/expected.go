package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"wcm3d"
)

// expectedFile pins each die's greedy flow output per seed. It was written
// by -write-expected, which certifies every plan with the verifier and the
// timing signoff before recording it.
//
//go:embed testdata/expected.json
var expectedFile []byte

type expectedSet struct {
	Note  string                       `json:"note"`
	Seeds map[string]map[string]dieOut `json:"seeds"`
}

var expected = func() expectedSet {
	var e expectedSet
	if err := json.Unmarshal(expectedFile, &e); err != nil {
		panic(fmt.Sprintf("testdata/expected.json: %v", err))
	}
	return e
}()

// checkPinned compares a die's output with the pinned one, when the seed
// and die are pinned.
func checkPinned(seed int64, p wcm3d.Profile, got dieOut) error {
	want, ok := expected.Seeds[strconv.FormatInt(seed, 10)][p.Name()]
	if ok && got != want {
		return fmt.Errorf("%s seed %d: got %+v, pinned %+v", p.Name(), seed, got, want)
	}
	return nil
}

// pinnedDies is every die whose greedy output a workload checks.
func pinnedDies(sc scale) []string {
	seen := map[string]bool{}
	var out []string
	for _, list := range [][]string{sc.sweep, sc.solve, sc.refine} {
		for _, n := range list {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// writeExpected regenerates the pinned outputs for the given seeds.
func writeExpected(path string, seeds []int64) error {
	e := expectedSet{
		Note:  "greedy flow (ours, tight) per die and seed; every plan certified by verify.Plan and CheckTiming",
		Seeds: map[string]map[string]dieOut{},
	}
	ps, err := profiles(pinnedDies(fullScale))
	if err != nil {
		return err
	}
	for _, seed := range seeds {
		m := map[string]dieOut{}
		for _, p := range ps {
			d, err := wcm3d.PrepareDie(p, seed)
			if err != nil {
				return err
			}
			res, err := solve(d, nil, "", 0)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", p.Name(), seed, err)
			}
			m[p.Name()] = outOf(d, res)
		}
		e.Seeds[strconv.FormatInt(seed, 10)] = m
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
