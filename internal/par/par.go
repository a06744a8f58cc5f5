// Package par provides the repo's two parallel-iteration primitives.
//
// ForEachIndex is the error-propagating, context-aware fan-out the
// experiment suites run across dies. Do is the lighter primitive the
// single-die hot path (cone construction, sharing-graph edge sweeps) uses:
// no context, no errors, and a stable worker id so call sites can keep
// per-worker scratch buffers.
//
// Both primitives make the same determinism promise: work items are
// identified by index, so callers that write results to disjoint,
// index-addressed slots get schedule-independent output.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values <= 0 mean "use all
// cores" (GOMAXPROCS), and the result never exceeds n, the number of work
// items.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(worker, i) for every i in [0, n) across a bounded pool of
// `workers` goroutines (<= 0 means GOMAXPROCS). The worker argument is a
// stable id in [0, workers) identifying the goroutine running the item, so
// fn may index per-worker scratch state without locking. Items are handed
// out dynamically (an atomic counter), which balances load when item costs
// are skewed; with workers == 1 everything runs inline on the caller's
// goroutine in index order.
//
// Do returns only after every item completes. fn must not panic.
func Do(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// ForEachIndex runs fn(ctx, i) for i in [0, n) across a bounded worker pool
// and returns the first error (by index order, so failures are
// deterministic). The experiment suites are embarrassingly parallel across
// dies: each die owns its netlist, placement and timing, and rows are
// written to disjoint indices.
//
// The first failure — or cancellation of ctx — aborts the remaining queued
// work: items not yet handed to a worker are skipped instead of running the
// suite to completion. Items already in flight see the cancellation through
// the context passed to fn and may bail early themselves; their
// context.Canceled returns never shadow the root-cause error of a later
// index.
func ForEachIndex(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("par: worker panic on item %d: %v", i, r)
			}
		}()
		return fn(inner, i)
	}
	workers := Workers(0, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := inner.Err(); err != nil {
				return err
			}
			if err := call(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// A dispatched item always runs (its error wins over any
				// later-index failure); only undispatched work is skipped.
				if err := call(i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-inner.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	// First error by index — but an fn that observed our own abort and
	// returned the context error must not shadow the real failure that
	// triggered it at a later index.
	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctxErr == nil {
				ctxErr = err
			}
		default:
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ctxErr
}
