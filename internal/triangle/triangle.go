// Package triangle implements the Support kernel of the pipeline: exact
// per-edge triangle counts (Definition 2 of the paper).
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
