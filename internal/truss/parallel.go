package truss

import (
	"context"
	"math"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Counters emitted by the parallel peeling kernels: levels and sub-rounds
// expose how level-synchronous the instance is, decrements count the
// triangle-destruction work, and captures count transition admissions into
// a frontier. Together with truss_peel_seed_admissions (level-start
// admissions, see pkt.go), every edge is admitted exactly once:
// seeds + captures == m for a full decomposition — the invariant that
// makes the counters trustworthy and is pinned by tests.
var (
	cPeelLevels = obs.GetCounter("truss_peel_levels",
		"support levels processed by the parallel peeling decomposition")
	cPeelSubrounds = obs.GetCounter("truss_peel_subrounds",
		"frontier sub-rounds processed by the parallel peeling decomposition")
	cPeelDecrements = obs.GetCounter("truss_support_decrements",
		"atomic support decrements applied by the parallel peeling")
	cPeelCaptures = obs.GetCounter("truss_frontier_captures",
		"edges captured into a peel frontier on a support-level transition")
	cPeelLevelSkips = obs.GetCounter("truss_peel_level_skips",
		"empty support levels skipped by jumping to the minimum surviving support")
)

// DecomposeParallelCtx is the level-synchronous parallel peeling: at peel
// level L all alive edges with support <= L are peeled together in
// sub-rounds, decrementing surviving triangle partners with atomics. The
// triangle shared between two simultaneously peeled edges is settled by an
// edge-ID tie-break so each destroyed triangle decrements each survivor
// exactly once — the discipline of shared-memory PKT-style decompositions.
//
// The result is exactly DecomposeSerialCtx's (trussness is unique). Each
// peel sub-round's processing pass emits per-thread "TrussDecomp" spans
// into tr, and the peeling counters above accumulate regardless of tracing.
// The peel checks ctx at every scheduler barrier and between sub-rounds,
// returning ctx.Err() (and no trussness) promptly with all workers joined.
func DecomposeParallelCtx(ctx context.Context, g *graph.Graph, supports []int32, threads int, tr *obs.Trace) (tau []int32, kmax int32, err error) {
	m := int32(g.NumEdges())
	tau = make([]int32, m)
	if m == 0 {
		return tau, MinTrussness, nil
	}
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	sup := make([]int32, m)
	copy(sup, supports)
	deleted := ds.NewBitset(int(m))
	inCurr := ds.NewBitset(int(m))
	remaining := int64(m)
	level := int32(0)

	// Per-thread next-frontier buffers, reused across sub-rounds.
	nextBufs := make([][]int32, threads)

	for remaining > 0 {
		cPeelLevels.Inc()
		// Collect the initial frontier for this level, learning the minimum
		// surviving support in the same pass.
		curr, minAlive, err := collectFrontier(ctx, sup, deleted, level, threads, tr)
		if err != nil {
			return nil, 0, err
		}
		if len(curr) == 0 {
			// No alive edge at or below this level: jump straight to the
			// lowest surviving support instead of rescanning once per empty
			// level (the PKT skip-to-next-live-value discipline). minAlive >
			// level here because remaining > 0 guarantees alive edges exist.
			cPeelLevelSkips.Add(int64(minAlive - level))
			level = minAlive
			continue
		}
		for len(curr) > 0 {
			cPeelSubrounds.Inc()
			n := len(curr)
			if err := concur.For(ctx, tr, "TrussDecomp", n, threads, func(i int) { inCurr.SetAtomic(int(curr[i])) }); err != nil {
				return nil, 0, err
			}
			for t := range nextBufs {
				nextBufs[t] = nextBufs[t][:0]
			}
			err := concur.ForThreads(ctx, tr, "TrussDecomp", threads, func(tid int) {
				lo := tid * n / threads
				hi := (tid + 1) * n / threads
				next := nextBufs[tid]
				var decs int64
				for i := lo; i < hi; i++ {
					e := curr[i]
					tau[e] = level + 2
					g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
						if deleted.Get(int(e1)) || deleted.Get(int(e2)) {
							return true
						}
						c1 := inCurr.Get(int(e1))
						c2 := inCurr.Get(int(e2))
						switch {
						case c1 && c2:
							// Whole triangle peeled this sub-round.
						case c1:
							// e and e1 peeled together; e owns the
							// decrement of e2 iff it has the smaller ID.
							if e < e1 {
								next = decCapture(sup, e2, level, next, &decs)
							}
						case c2:
							if e < e2 {
								next = decCapture(sup, e1, level, next, &decs)
							}
						default:
							next = decCapture(sup, e1, level, next, &decs)
							next = decCapture(sup, e2, level, next, &decs)
						}
						return true
					})
				}
				nextBufs[tid] = next
				cPeelDecrements.Add(decs)
				cPeelCaptures.Add(int64(len(next)))
			})
			if err != nil {
				return nil, 0, err
			}
			// Retire the processed frontier.
			if err := concur.For(ctx, tr, "TrussDecomp", n, threads, func(i int) {
				e := curr[i]
				inCurr.ClearAtomic(int(e))
				deleted.SetAtomic(int(e))
			}); err != nil {
				return nil, 0, err
			}
			remaining -= int64(n)
			curr = curr[:0]
			for t := range nextBufs {
				curr = append(curr, nextBufs[t]...)
			}
		}
		level++
	}
	return tau, KMax(tau), nil
}

// decCapture atomically decrements sup[e] and appends e to next exactly
// when the decrement crosses into the current peel level — the
// capture-on-transition trick that guarantees each edge enters the frontier
// once. decs accumulates thread-locally; the worker flushes it to the
// process counter once per block so the hot loop stays atomic-free.
func decCapture(sup []int32, e, level int32, next []int32, decs *int64) []int32 {
	*decs++
	if v := atomic.AddInt32(&sup[e], -1); v == level {
		next = append(next, e)
	}
	return next
}

// collectFrontier gathers all alive edges with support <= level using
// per-thread buffers. It also returns the minimum support among the alive
// edges left out of the frontier (math.MaxInt32 when none remain) so the
// caller can jump over empty levels without another scan.
//
// Admission accounting: the scan counts each collected edge once into
// truss_peel_seed_admissions. An edge already captured into a frontier by
// a support transition in a prior sub-round of the same level is deleted
// (or in-frontier) by the time the next level's scan runs, so a collected
// edge can never also have been counted as a capture — seeds and captures
// partition the edge set.
func collectFrontier(ctx context.Context, sup []int32, deleted *ds.Bitset, level int32, threads int, tr *obs.Trace) ([]int32, int32, error) {
	m := len(sup)
	bufs := make([][]int32, threads)
	mins := make([]int32, threads)
	err := concur.ForThreads(ctx, tr, "TrussDecomp", threads, func(tid int) {
		lo := tid * m / threads
		hi := (tid + 1) * m / threads
		var buf []int32
		min := int32(math.MaxInt32)
		for e := lo; e < hi; e++ {
			if deleted.Get(e) {
				continue
			}
			if s := sup[e]; s <= level {
				buf = append(buf, int32(e))
			} else if s < min {
				min = s
			}
		}
		bufs[tid] = buf
		mins[tid] = min
	})
	if err != nil {
		return nil, 0, err
	}
	var out []int32
	minAlive := int32(math.MaxInt32)
	for t, b := range bufs {
		out = append(out, b...)
		if mins[t] < minAlive {
			minAlive = mins[t]
		}
	}
	cPeelSeeds.Add(int64(len(out)))
	return out, minAlive, nil
}
