package triangle

import (
	"context"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Counters emitted by the oriented kernel: enumerated triangles expose the
// work actually done (exactly one hit per triangle, vs three per triangle
// for the merge kernel's symmetric intersections).
var cOrientedTriangles = obs.GetCounter("support_oriented_triangles",
	"triangles enumerated by the oriented compact-forward Support kernel")

// accArrayLimit caps the per-thread credit-accumulation footprint of the
// oriented kernel (threads × edges int32 entries). Below the cap every
// worker accumulates into a private array and a scatter-free parallel
// reduction produces the final supports — zero atomics on the hot path.
// Above it the kernel falls back to atomic credits, trading contention for
// memory.
const accArrayLimit = 1 << 26 // 64M entries = 256 MiB of int32

// SupportsOrientedCtx computes per-edge supports with the compact-forward
// scheme behind the O(|E|^1.5) bound the paper cites: orient every edge
// from lower to higher (degree, id) rank, enumerate each triangle exactly
// once as an intersection of out-neighborhoods (graph.Oriented), and credit
// all three member edges. On skewed graphs the oriented lists (length ≤
// O(√m)) are much shorter than hub adjacencies, so the kernel does far less
// intersection work than the merge kernel's symmetric per-edge scans.
//
// It has the merge kernel's full production contract: workers poll ctx at chunk-claim granularity and the
// call returns ctx.Err() with every goroutine joined once it fires, every
// parallel stage emits per-thread "Support" spans into tr, and each stage's
// barrier is a "concur.barrier" fault-injection site.
func SupportsOrientedCtx(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, error) {
	m := int(g.NumEdges())
	sup := make([]int32, m)
	if m == 0 {
		return sup, nil
	}
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	og, err := graph.Orient(ctx, g, threads, tr, "Support")
	if err != nil {
		return nil, err
	}

	// Triangle credits accumulate into per-thread arrays (reduced after the
	// barrier) when the footprint allows, killing the triple-atomic
	// contention of the naive scheme; otherwise each credit is an atomic add.
	useAcc := int64(threads)*int64(m) <= accArrayLimit
	var accs [][]int32
	if useAcc {
		accs = make([][]int32, threads)
		if err := concur.ForThreads(ctx, tr, "Support", threads, func(tid int) {
			accs[tid] = make([]int32, m)
		}); err != nil {
			return nil, err
		}
	}
	tris, err := og.ForEachTriangle(ctx, tr, "Support", threads, func(tid int, e, e1, e2 int32) {
		if useAcc {
			acc := accs[tid]
			acc[e]++
			acc[e1]++
			acc[e2]++
		} else {
			atomic.AddInt32(&sup[e], 1)
			atomic.AddInt32(&sup[e1], 1)
			atomic.AddInt32(&sup[e2], 1)
		}
	})
	if err != nil {
		return nil, err
	}
	cOrientedTriangles.Add(tris)
	if useAcc {
		err = concur.ForRange(ctx, tr, "Support", m, threads, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				var s int32
				for t := 0; t < threads; t++ {
					s += accs[t][e]
				}
				sup[e] = s
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return sup, nil
}
