package service

import (
	"context"
	"errors"
	"sync"
)

// Submission errors.
var (
	// ErrQueueFull reports backpressure: the bounded queue has no room.
	// The HTTP layer maps it to 429 Too Many Requests.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrShuttingDown reports a submission after Shutdown began, or a
	// schedule the drain deadline cut short. The HTTP layer maps it to
	// 503 Service Unavailable.
	ErrShuttingDown = errors.New("service: shutting down")
)

// pool is a bounded task queue drained by a fixed set of workers; jobs and
// schedules are its tasks. Submission is non-blocking: when the queue is
// full the caller gets ErrQueueFull immediately (backpressure) instead of
// waiting. Every task receives the pool's base context, which is cancelled
// when a shutdown deadline expires, so in-flight work can bail between
// stages.
type pool struct {
	mu     sync.Mutex
	closed bool
	queue  chan func(context.Context)
	wg     sync.WaitGroup
	base   context.Context
	cancel context.CancelFunc
}

func newPool(workers, depth int) *pool {
	base, cancel := context.WithCancel(context.Background())
	p := &pool{
		queue:  make(chan func(context.Context), depth),
		base:   base,
		cancel: cancel,
	}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range p.queue {
				fn(p.base)
			}
		}()
	}
	return p
}

// trySubmit enqueues fn without blocking.
func (p *pool) trySubmit(fn func(context.Context)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrShuttingDown
	}
	select {
	case p.queue <- fn:
		return nil
	default:
		return ErrQueueFull
	}
}

// depth reports the number of queued-but-not-started tasks.
func (p *pool) depth() int { return len(p.queue) }

// shutdown stops accepting work and drains already-accepted tasks. If ctx
// expires first, the pool's base context is cancelled so in-flight tasks
// abort at their next stage boundary; shutdown still waits for the workers
// to hand back control before returning ctx's error.
func (p *pool) shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		p.cancel()
		return nil
	case <-ctx.Done():
		p.cancel()
		<-done
		return ctx.Err()
	}
}
