package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"wcm3d"
	"wcm3d/internal/netgen"
)

// TestBatchSweepMatchesSerial pins the -batch sweep to the serial path:
// every die's plan — assignment, per-phase statistics and totals — must
// be deep-equal to a plain PrepareDie + Minimize on that die. The sweep's
// pool follows GOMAXPROCS, so the subtests run it at 1 (inline, in index
// order), 2 and 8 workers. It always covers the b11 and b12 families
// (8 dies); with WCM3D_FULL_EQUIV=1 it covers all 24 Table II dies, about
// 30 s on two cores (CI's batch-equivalence job sets it).
func TestBatchSweepMatchesSerial(t *testing.T) {
	var profiles []netgen.Profile
	if os.Getenv("WCM3D_FULL_EQUIV") != "" {
		profiles = wcm3d.ITC99Profiles()
	} else {
		profiles = append(wcm3d.CircuitProfiles("b11"), wcm3d.CircuitProfiles("b12")...)
	}
	const seed = 1
	serial := make([]*wcm3d.MinimizeResult, len(profiles))
	for i, p := range profiles {
		d, err := wcm3d.PrepareDie(p, seed)
		if err != nil {
			t.Fatalf("serial prepare %s: %v", p.Name(), err)
		}
		if serial[i], err = wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming); err != nil {
			t.Fatalf("serial minimize %s: %v", p.Name(), err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			rows, _, err := batchSweepRows(profiles, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range profiles {
				name, got, want := p.Name(), rows[i].plan, serial[i]
				if rows[i].Die != name || got == nil {
					t.Fatalf("row %d: die %q with plan %v, want %s with a plan", i, rows[i].Die, got, name)
				}
				if !reflect.DeepEqual(got.Assignment, want.Assignment) {
					t.Errorf("%s: Assignment differs from serial path", name)
				}
				if !reflect.DeepEqual(got.Phases, want.Phases) {
					t.Errorf("%s: PhaseStats differ:\n got %+v\nwant %+v", name, got.Phases, want.Phases)
				}
				if rows[i].ReusedFFs != want.ReusedFFs || rows[i].AdditionalCells != want.AdditionalCells {
					t.Errorf("%s: totals (%d,%d) != serial (%d,%d)", name,
						rows[i].ReusedFFs, rows[i].AdditionalCells, want.ReusedFFs, want.AdditionalCells)
				}
			}
		})
	}
}

// BenchmarkBatchTableII is the 24-die Table II prepare+minimize sweep
// (ours, tight timing) written two ways. The naive sub-bench is a serial
// wcm3d.PrepareDie + wcm3d.Minimize loop, fault lists included. The
// parallel sub-bench is the -batch sweep: one die per core, no fault
// lists, each die dropped once solved. Both report the summed cells and
// reused flip-flops; the two rows must agree, and CI checks that they do.
// results/batch_throughput.txt holds a reference run.
func BenchmarkBatchTableII(b *testing.B) {
	profiles := wcm3d.ITC99Profiles()
	const seed = 1

	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cells, reused := 0, 0
			for _, p := range profiles {
				d, err := wcm3d.PrepareDie(p, seed)
				if err != nil {
					b.Fatal(err)
				}
				res, err := wcm3d.Minimize(d, wcm3d.MethodOurs, wcm3d.TightTiming)
				if err != nil {
					b.Fatal(err)
				}
				cells += res.AdditionalCells
				reused += res.ReusedFFs
			}
			b.ReportMetric(float64(cells), "cells")
			b.ReportMetric(float64(reused), "reused")
		}
	})

	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, _, err := batchSweepRows(profiles, seed)
			if err != nil {
				b.Fatal(err)
			}
			cells, reused := 0, 0
			for _, r := range rows {
				cells += r.AdditionalCells
				reused += r.ReusedFFs
			}
			b.ReportMetric(float64(cells), "cells")
			b.ReportMetric(float64(reused), "reused")
		}
	})
}
