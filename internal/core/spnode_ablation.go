package core

import (
	"context"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// The paper (§3.1) selects SV and Afforest for the edge-entity connected
// components after weighing two rejected alternatives: label propagation
// (work linear but bound by component diameter) and BFS (linear work but
// parallelism limited by the number of components). Both rejected designs
// are implemented here — over the flat C-Optimal storage — so the design
// decision is reproducible as an ablation (BenchmarkAblationSpNodeStrategies).

// spNodeLabelProp computes Π by min-label propagation over edge entities:
// every edge repeatedly adopts the smallest Π among its same-k qualifying
// triangle partners until a fixpoint. Rounds scale with the diameter of
// the largest supernode — the weakness the paper calls out.
func spNodeLabelProp(ctx context.Context, g *graph.Graph, tau []int32, threads int, tr *obs.Trace) ([]int32, error) {
	m := int32(g.NumEdges())
	pi := make([]int32, m)
	if err := concur.For(ctx, tr, "SpNode", int(m), threads, func(i int) {
		if tau[i] >= MinK {
			pi[i] = int32(i)
		} else {
			pi[i] = NoSupernode
		}
	}); err != nil {
		return nil, err
	}
	changed := int32(1)
	for changed != 0 {
		changed = 0
		err := concur.ForRangeDynamic(ctx, tr, "SpNode", int(m), threads, 512, func(lo, hi int) {
			local := false
			for i := lo; i < hi; i++ {
				e := int32(i)
				k := tau[e]
				if k < MinK {
					continue
				}
				best := atomic.LoadInt32(&pi[e])
				g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
					k1, k2 := tau[e1], tau[e2]
					if k1 == k && k2 >= k {
						if l := atomic.LoadInt32(&pi[e1]); l < best {
							best = l
						}
					}
					if k2 == k && k1 >= k {
						if l := atomic.LoadInt32(&pi[e2]); l < best {
							best = l
						}
					}
					return true
				})
				if best < atomic.LoadInt32(&pi[e]) {
					if concur.CASMinInt32(&pi[e], best) {
						local = true
					}
				}
			}
			if local {
				atomic.StoreInt32(&changed, 1)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return pi, nil
}

// spNodeBFS computes Π with repeated breadth-first traversals over edge
// entities: each unvisited τ>=3 edge seeds a supernode and the frontier
// expands in parallel through same-k qualifying triangles. Within one
// supernode the frontier parallelizes; across the (many) small supernodes
// the traversal is sequential — the paper's reason to reject it.
func spNodeBFS(ctx context.Context, g *graph.Graph, tau []int32, threads int, tr *obs.Trace) ([]int32, error) {
	m := int32(g.NumEdges())
	pi := make([]int32, m)
	for i := range pi {
		pi[i] = NoSupernode
	}
	visited := ds.NewBitset(int(m))
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	var frontier, next []int32
	for seed := int32(0); seed < m; seed++ {
		// The seed scan between traversals is serial; poll ctx periodically
		// so a graph full of tiny supernodes still cancels promptly.
		if seed&8191 == 0 && concur.Canceled(ctx) {
			return nil, ctx.Err()
		}
		if tau[seed] < MinK || visited.Get(int(seed)) {
			continue
		}
		visited.Set(int(seed))
		pi[seed] = seed
		k := tau[seed]
		frontier = append(frontier[:0], seed)
		for len(frontier) > 0 {
			bufs := make([][]int32, threads)
			err := concur.ForThreads(ctx, tr, "SpNode", threads, func(tid int) {
				lo := tid * len(frontier) / threads
				hi := (tid + 1) * len(frontier) / threads
				var buf []int32
				for i := lo; i < hi; i++ {
					e := frontier[i]
					g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
						k1, k2 := tau[e1], tau[e2]
						if k1 == k && k2 >= k && visited.SetAtomic(int(e1)) {
							atomic.StoreInt32(&pi[e1], seed)
							buf = append(buf, e1)
						}
						if k2 == k && k1 >= k && visited.SetAtomic(int(e2)) {
							atomic.StoreInt32(&pi[e2], seed)
							buf = append(buf, e2)
						}
						return true
					})
				}
				bufs[tid] = buf
			})
			if err != nil {
				return nil, err
			}
			next = next[:0]
			for _, b := range bufs {
				next = append(next, b...)
			}
			frontier, next = next, frontier
		}
	}
	return pi, nil
}
