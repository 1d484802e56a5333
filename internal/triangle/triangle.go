// Package triangle implements the Support kernel of the pipeline: exact
// per-edge triangle counts (Definition 2 of the paper) plus whole-graph
// triangle counting.
//
// Support of edge (u, v) equals |N(u) ∩ N(v)| in a simple graph, so each
// edge's support is computed independently by a sorted-merge intersection —
// embarrassingly parallel with no atomics. Dynamic chunk scheduling evens
// out power-law skew (hub edges cost far more than leaf edges).
package triangle

import (
	"context"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Supports returns support(e) for every edge ID, computed by the merge
// kernel with the given number of threads (<= 0 means all cores). It is
// SupportsCtx with a nil context, which cannot fail.
func Supports(g *graph.Graph, threads int) []int32 {
	sup, _ := SupportsCtx(nil, g, threads, nil)
	return sup
}

// SupportsCtx is the merge kernel's production form: workers check ctx
// between dynamic chunks and the call returns ctx.Err() (and no supports)
// once it fires, with every worker goroutine joined. Per-thread "Support"
// spans into tr record how many edges each worker claimed, which is exactly
// the load-balance signal the kernel's chunking exists to fix.
func SupportsCtx(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, error) {
	m := int(g.NumEdges())
	sup := make([]int32, m)
	edges := g.Edges()
	err := concur.ForRangeDynamic(ctx, tr, "Support", m, threads, 512, func(lo, hi int) {
		for eid := lo; eid < hi; eid++ {
			e := edges[eid]
			sup[eid] = g.CommonNeighborCount(e.U, e.V)
		}
	})
	if err != nil {
		return nil, err
	}
	return sup, nil
}

// SupportsGallopingCtx is SupportsCtx with a galloping (binary-probing)
// intersection that wins when one endpoint's list is much longer than the
// other — the middle arm of the kernel-selection heuristic. It keeps the
// merge kernel's production contract: cancellation between dynamic chunks,
// per-thread "Support" spans into tr, and the scheduler-barrier fault site.
func SupportsGallopingCtx(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, error) {
	m := int(g.NumEdges())
	sup := make([]int32, m)
	edges := g.Edges()
	err := concur.ForRangeDynamic(ctx, tr, "Support", m, threads, 512, func(lo, hi int) {
		for eid := lo; eid < hi; eid++ {
			e := edges[eid]
			nu, nv := g.Neighbors(e.U), g.Neighbors(e.V)
			if len(nu) > len(nv) {
				nu, nv = nv, nu
			}
			if len(nv) >= 16*len(nu) {
				sup[eid] = gallopIntersect(nu, nv)
			} else {
				sup[eid] = mergeIntersect(nu, nv)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return sup, nil
}

func mergeIntersect(a, b []int32) int32 {
	var count int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// gallopIntersect counts |a ∩ b| assuming len(a) << len(b): for each
// element of a it gallops forward in b (doubling probe, then binary search
// within the bracket).
func gallopIntersect(a, b []int32) int32 {
	var count int32
	lo := 0
	for _, x := range a {
		// Gallop to find the bracket containing x.
		step := 1
		hi := lo
		for hi < len(b) && b[hi] < x {
			lo = hi + 1
			hi += step
			step *= 2
		}
		if hi > len(b) {
			hi = len(b)
		}
		// Binary search in (lo-1, hi].
		l, r := lo, hi
		for l < r {
			mid := (l + r) / 2
			if b[mid] < x {
				l = mid + 1
			} else {
				r = mid
			}
		}
		if l < len(b) && b[l] == x {
			count++
			l++
		}
		lo = l
		if lo >= len(b) {
			break
		}
	}
	return count
}

// Count returns the total number of triangles in g. Every triangle is
// counted once per constituent edge by the per-edge supports, so the sum of
// supports equals three times the triangle count. The supports come from
// the auto-selected kernel, so skewed graphs get the oriented scheme.
func Count(g *graph.Graph, threads int) int64 {
	sup, _ := SupportsKernelCtx(nil, g, KernelAuto, threads, nil)
	var total int64
	for _, s := range sup {
		total += int64(s)
	}
	return total / 3
}
