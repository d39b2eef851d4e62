package query

import (
	"context"
	"io"
	"sync"
)

// DefaultFanInBufferRows is the per-source backpressure window of
// ParallelUnionBatches: how many rows a puller may run ahead of the
// consumer before it blocks, rounded to whole batches (fanInDepth).
const DefaultFanInBufferRows = 256

// fanInDepth is how many batches of batchRows rows each source's
// queue holds: DefaultFanInBufferRows rounded down to whole batches,
// never below one. The queue and EXPLAIN's window both read it here.
func fanInDepth(batchRows int) int { return max(DefaultFanInBufferRows/batchRows, 1) }

// FanInOptions configures how a federated union drains its member
// sources.
type FanInOptions struct {
	// Workers caps how many sources are drained concurrently. 0 and 1
	// select the sequential union (deterministic source-concatenation
	// order); values above the source count are clamped to one puller
	// per source.
	Workers int
	// Budget, when set, is the query's shared memory budget: rows are
	// charged while they sit in the fan-in queues and released as the
	// consumer dequeues them. A puller whose charge would exceed the
	// budget surfaces ErrBudgetExceeded in-band instead of buffering
	// on. Nil means unlimited.
	Budget *MemBudget
}

// sequential reports whether the options degenerate to the sequential
// union.
func (o FanInOptions) sequential() bool { return o.Workers <= 1 }

// batchHop is the unit crossing a puller→consumer channel hop: one
// already-remapped batch, or the source's terminal state (io.EOF or a
// real error) after its last batch was delivered.
type batchHop struct {
	b   *Batch
	err error
}

// ParallelUnionBatches merges batch sources concurrently with bounded
// buffering: one puller goroutine per source (at most opts.Workers
// running at once) drains its source into a per-source queue, remapping
// each batch onto the union header, and the consumer's Next serves
// batches in arrival order. Semantics match UnionBatches except for
// order, which is arrival order rather than source-concatenation order:
//
//   - Backpressure: a source may run at most fanInDepth(batchRows)
//     batches ahead of the consumer; full queues block the puller, not
//     the consumer.
//   - A slow source never stalls the others — their batches keep
//     flowing while it blocks, so wall-clock tracks the slowest source
//     instead of the sum of sources.
//   - The first source error is propagated in-band from Next (sticky),
//     and stops all pullers.
//   - Close cancels every puller, waits for them to exit, and closes
//     every source exactly once — leak-free even mid-stream.
//
// With Workers <= 1 (or fewer than two sources) it returns the
// sequential UnionBatches, the fanin=1 case that keeps ordering
// deterministic.
//
// ctx scopes the pullers: it is the stream-open context, and cancelling
// it tears the fan-in down exactly like Close.
func ParallelUnionBatches(ctx context.Context, sources []BatchIterator, want []string, opts FanInOptions, batchRows int) BatchIterator {
	if len(sources) < 2 || opts.sequential() {
		return UnionBatches(sources, want)
	}
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	depth := fanInDepth(batchRows)
	pctx, cancel := context.WithCancel(ctx)
	p := &fanInUnion{
		cols:   unionBatchColumns(sources, want),
		pctx:   pctx,
		cancel: cancel,
		budget: opts.Budget,
		queues: make([]chan batchHop, len(sources)),
		// A token is pushed only after its batch is queued, so tokens
		// never outnumber queued batches and this capacity guarantees
		// pullers never block on ready.
		ready: make(chan int, len(sources)*depth),
	}
	var sem chan struct{}
	if opts.Workers < len(sources) {
		sem = make(chan struct{}, opts.Workers)
	}
	p.wg.Add(len(sources))
	for i, src := range sources {
		p.queues[i] = make(chan batchHop, depth)
		go p.pull(pctx, i, src, sem)
	}
	return p
}

// fanInUnion is the consumer half of the concurrent fan-in.
type fanInUnion struct {
	cols []string
	// pctx scopes the pullers: derived from the stream-open context,
	// cancelled by Close and on the first source error. Next watches it
	// so an open-scope cancellation surfaces instead of hanging a
	// consumer whose per-call context is still live.
	pctx   context.Context
	cancel context.CancelFunc
	// budget, when set, holds the charge for batches parked in the
	// queues (charged by row count); pullers acquire before queueing,
	// the consumer releases on dequeue.
	budget *MemBudget
	queues []chan batchHop
	// ready carries source indexes in batch-arrival order; the consumer
	// blocks here, then pops the announced queue.
	ready chan int
	wg    sync.WaitGroup

	// closeMu guards closeErr, the first source-Close failure seen by
	// any puller (the sequential union's Close reports the same).
	closeMu  sync.Mutex
	closeErr error

	// Consumer-side state (single consumer, no locking needed).
	done   int
	err    error
	closed bool
}

// pull drains one source: acquire a worker slot, remap each batch onto
// the union header, queue it, and finish with the source's terminal
// state. The source is closed here, exactly once, however the stream
// ends.
func (p *fanInUnion) pull(ctx context.Context, i int, src BatchIterator, sem chan struct{}) {
	defer p.wg.Done()
	defer func() {
		if err := src.Close(); err != nil {
			p.closeMu.Lock()
			if p.closeErr == nil {
				p.closeErr = err
			}
			p.closeMu.Unlock()
		}
	}()
	if sem != nil {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		case <-ctx.Done():
			return
		}
	}
	srcMap := batchMapping(src.Columns(), p.cols)
	for {
		b, err := src.Next(ctx)
		if err != nil {
			if ctx.Err() != nil {
				// Torn down by Close/cancel: nobody is reading anymore.
				return
			}
			p.send(ctx, i, batchHop{err: err})
			return
		}
		if err := p.budget.Acquire(b.Len()); err != nil {
			// Budget exceeded: surface it in-band as this source's
			// terminal error instead of buffering on.
			p.send(ctx, i, batchHop{err: err})
			return
		}
		if !p.send(ctx, i, batchHop{b: remapBatch(b, srcMap)}) {
			return
		}
	}
}

// send queues one hop and announces its arrival; false means the
// stream was torn down and the puller should exit.
func (p *fanInUnion) send(ctx context.Context, i int, h batchHop) bool {
	select {
	case p.queues[i] <- h:
	case <-ctx.Done():
		return false
	}
	select {
	case p.ready <- i:
		return true
	case <-ctx.Done():
		return false
	}
}

func (p *fanInUnion) Columns() []string { return p.cols }

func (p *fanInUnion) Next(ctx context.Context) (*Batch, error) {
	// The sticky error outranks closed — a failed stream must keep
	// replaying its error after the contractual Close, exactly like the
	// sequential union, not read as cleanly ended.
	if p.err != nil {
		return nil, p.err
	}
	if p.closed {
		return nil, io.EOF
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for {
		if p.done == len(p.queues) {
			return nil, io.EOF
		}
		var i int
		select {
		case i = <-p.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-p.pctx.Done():
			// The stream-open context was cancelled out from under a
			// consumer whose per-call context is still live: pullers are
			// exiting without terminal hops, so waiting on ready would
			// hang forever. Serve anything already announced, then
			// surface the cancellation (sticky).
			select {
			case i = <-p.ready:
			default:
				p.err = p.pctx.Err()
				return nil, p.err
			}
		}
		h := <-p.queues[i]
		if h.b != nil {
			// Dequeued batches leave the fan-in buffer: hand their budget
			// charge back (a downstream buffering stage re-charges its
			// own).
			p.budget.Release(h.b.Len())
		}
		if h.err == io.EOF {
			p.done++
			continue
		}
		if h.err != nil {
			// First source error: surface it in-band (sticky) and stop
			// the remaining pullers, which close their sources on the
			// way out.
			p.err = h.err
			p.cancel()
			return nil, h.err
		}
		return h.b, nil
	}
}

func (p *fanInUnion) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.cancel()
	p.wg.Wait()
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	return p.closeErr
}
