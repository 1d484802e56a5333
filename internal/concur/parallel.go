// Package concur provides the shared-memory parallel primitives used by the
// EquiTruss pipeline: one entry point per loop shape — static (For),
// static-block (ForRange), dynamic (ForDynamic), dynamic-block
// (ForRangeDynamic) and per-thread (ForThreads) — plus a parallel max
// reduction and a priority-write atomic.
//
// The package deliberately mirrors the OpenMP constructs used in the paper
// ("#pragma omp parallel for", reductions, thread-local storage) with
// goroutine-based equivalents so that the algorithm pseudocode translates
// line for line.
//
// Every scheduler takes (ctx, tr, name, ...) and returns an error:
//
//   - Cancellation. Workers poll ctx between chunks, stop claiming new work
//     once it fires, and the call joins every goroutine before returning
//     ctx.Err(). Cancellation latency is bounded by one chunk of the body,
//     and no goroutine ever outlives the call.
//   - Tracing. Every worker wraps its share of the loop in one per-thread
//     span named name (obs.Trace.StartThread) recording busy time and, where
//     the scheduler knows it, the iterations processed. A nil tracer records
//     nothing and adds no clock reads or allocations.
//   - Fault injection. The barrier exit is the "concur.barrier" fault site:
//     the chaos suite arms it to prove that a kernel failing at any barrier
//     propagates one clean error instead of deadlocking or leaking workers.
//
// A nil context is the no-error contract: it is never canceled and its
// barriers are not a fault site, so the call always returns nil. Callers
// with no way to surface an error (Trussness, Index.Hierarchy, the graph
// builders) pass nil and ignore the result; every context.Context, even
// context.Background(), opts into cancellation and injection.
package concur

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"equitruss/internal/faults"
	"equitruss/internal/obs"
)

// MaxThreads returns the default parallelism for the pipeline: the number of
// usable CPUs as reported by the runtime.
func MaxThreads() int {
	return runtime.GOMAXPROCS(0)
}

// clampThreads normalizes a requested thread count: values <= 0 mean "use
// all available cores"; values are capped so that we never spawn more
// goroutines than loop iterations in the static scheduler.
func clampThreads(threads, n int) int {
	if threads <= 0 {
		threads = MaxThreads()
	}
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// barrierSite names the fault-injection point at scheduler barrier exits.
const barrierSite = "concur.barrier"

// cancelChunk bounds the iterations a static worker runs between context
// polls when the context can be canceled; dynamic workers poll once per
// claimed chunk instead.
const cancelChunk = 2048

// poller returns a cheap non-blocking cancellation check for ctx, or nil
// when ctx can never be canceled (nil ctx or Done() == nil).
func poller(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	d := ctx.Done()
	if d == nil {
		return nil
	}
	return func() bool {
		select {
		case <-d:
			return true
		default:
			return false
		}
	}
}

// barrierExit is the shared epilogue of every scheduler: cancellation wins
// over an injected barrier fault so canceled builds report ctx.Err(), and a
// nil context is never a fault site.
func barrierExit(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if faults.Active() {
		return faults.Inject(barrierSite)
	}
	return nil
}

// For runs body(i) for every i in [0, n) with a static block distribution,
// like "omp parallel for schedule(static)". threads <= 0 selects
// MaxThreads().
func For(ctx context.Context, tr *obs.Trace, name string, n, threads int, body func(i int)) error {
	return ForRange(ctx, tr, name, n, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange runs body(lo, hi) on contiguous blocks partitioning [0, n) — one
// block per thread, subdivided into cancelChunk-sized sub-blocks only when
// ctx can be canceled. This is the cheapest scheduler: a single goroutine
// per thread and no per-iteration closure call. Use it when the body wants
// to iterate over its block itself (e.g. to keep loop-carried locals).
func ForRange(ctx context.Context, tr *obs.Trace, name string, n, threads int, body func(lo, hi int)) error {
	if n <= 0 {
		return barrierExit(ctx)
	}
	threads = clampThreads(threads, n)
	done := poller(ctx)
	run := func(tid, lo, hi int) {
		r := tr.StartThread(name, tid)
		if done == nil {
			body(lo, hi)
			r.EndItems(int64(hi - lo))
			return
		}
		start := lo
		for lo < hi && !done() {
			end := min(lo+cancelChunk, hi)
			body(lo, end)
			lo = end
		}
		r.EndItems(int64(lo - start))
	}
	if threads == 1 {
		run(0, 0, n)
		return barrierExit(ctx)
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			run(tid, tid*n/threads, (tid+1)*n/threads)
		}(t)
	}
	wg.Wait()
	return barrierExit(ctx)
}

// ForDynamic runs body(i) for every i in [0, n) using dynamic chunked
// scheduling, like "omp parallel for schedule(dynamic, grain)". It is the
// right scheduler for skewed per-iteration work (e.g. per-edge triangle
// intersection on power-law graphs). grain <= 0 selects a heuristic chunk.
func ForDynamic(ctx context.Context, tr *obs.Trace, name string, n, threads, grain int, body func(i int)) error {
	return ForRangeDynamic(ctx, tr, name, n, threads, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRangeDynamic is the block form of ForDynamic: workers repeatedly claim
// half-open chunks [lo, hi) from a shared atomic cursor until the iteration
// space is exhausted, checking ctx before every claim. Each worker's span
// records the iterations it claimed, so scheduling skew is visible per
// worker.
func ForRangeDynamic(ctx context.Context, tr *obs.Trace, name string, n, threads, grain int, body func(lo, hi int)) error {
	if n <= 0 {
		return barrierExit(ctx)
	}
	threads = clampThreads(threads, n)
	if threads == 1 {
		// One worker needs no cursor: the static scheduler polls ctx at
		// the same granularity.
		return ForRange(ctx, tr, name, n, 1, body)
	}
	if grain <= 0 {
		grain = max(n/(threads*8), 64)
	}
	done := poller(ctx)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			r := tr.StartThread(name, tid)
			var items int64
			for done == nil || !done() {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					break
				}
				hi := min(lo+grain, n)
				body(lo, hi)
				items += int64(hi - lo)
			}
			r.EndItems(items)
		}(t)
	}
	wg.Wait()
	return barrierExit(ctx)
}

// ForThreads runs body(tid) once per thread id in [0, threads), like an
// "omp parallel" region where each thread handles its own slice of work.
// ctx is checked once per thread before its body runs: a canceled context
// skips bodies that have not started, while bodies already running complete
// (they own their range, so finer-grained checks belong inside the body —
// see Canceled). Iteration counts are unknown to the scheduler here, so
// spans carry busy time only.
func ForThreads(ctx context.Context, tr *obs.Trace, name string, threads int, body func(tid int)) error {
	if threads <= 0 {
		threads = MaxThreads()
	}
	done := poller(ctx)
	run := func(tid int) {
		r := tr.StartThread(name, tid)
		if done == nil || !done() {
			body(tid)
		}
		r.End()
	}
	if threads == 1 {
		run(0)
		return barrierExit(ctx)
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			run(tid)
		}(t)
	}
	wg.Wait()
	return barrierExit(ctx)
}

// Canceled is a non-blocking cancellation probe for opaque loop bodies
// (e.g. ForThreads workers iterating their own range): poll it every few
// thousand iterations and bail out early when it reports true. A nil
// context is never canceled.
func Canceled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// MaxInt32 computes the maximum of body(i) over i in [0, n) in parallel.
// It returns def for an empty range.
func MaxInt32(n, threads int, def int32, body func(i int) int32) int32 {
	if n <= 0 {
		return def
	}
	threads = clampThreads(threads, n)
	partial := make([]int32, threads)
	ForThreads(nil, nil, "", threads, func(tid int) {
		best, hi := def, (tid+1)*n/threads
		for i := tid * n / threads; i < hi; i++ {
			best = max(best, body(i))
		}
		partial[tid] = best
	})
	best := def
	for _, v := range partial {
		best = max(best, v)
	}
	return best
}
