package graph

import (
	"context"
	"slices"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/obs"
)

// orientedGrain is the number of edges a triangle-enumeration worker claims
// from the shared cursor at a time.
const orientedGrain = 512

// Oriented is the degree-oriented view of a graph behind the compact-forward
// triangle bound the paper cites (O(|E|^1.5)): every edge points from its
// lower- to its higher-ranked endpoint under ascending (degree, id) order, so
// each vertex keeps only its out-neighbors — at most O(√m) of them. Each
// out-list entry packs the head's rank above the edge ID, and the lists are
// sorted, so intersections merge on rank.
type Oriented struct {
	g    *Graph
	rank []int32  // rank[v] = position of v in ascending (degree, id) order
	off  []int64  // len n+1; off[v]..off[v+1] index out
	out  []uint64 // rank(w)<<32 | eid(v, w) for each out-neighbor w of v
}

// Orient builds g's degree-oriented view: a counting sort ranks the
// vertices, then two parallel passes over them count and fill the sorted
// out-lists, emitting per-thread spans named name. A canceled ctx or an
// injected barrier fault returns the error and no view.
func Orient(ctx context.Context, g *Graph, threads int, tr *obs.Trace, name string) (*Oriented, error) {
	n := int(g.NumVertices())
	o := &Oriented{g: g, rank: rankByDegree(g), off: make([]int64, n+1)}
	rank := o.rank
	err := concur.For(ctx, tr, name, n, threads, func(i int) {
		var d int64
		for _, w := range g.Neighbors(int32(i)) {
			if rank[w] > rank[i] {
				d++
			}
		}
		o.off[i+1] = d
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		o.off[i+1] += o.off[i]
	}
	o.out = make([]uint64, o.off[n])
	err = concur.For(ctx, tr, name, n, threads, func(i int) {
		v := int32(i)
		lo, c := o.off[i], o.off[i]
		eids := g.IncidentEIDs(v)
		for j, w := range g.Neighbors(v) {
			if rank[w] > rank[i] {
				o.out[c] = uint64(rank[w])<<32 | uint64(eids[j])
				c++
			}
		}
		slices.Sort(o.out[lo:c])
	})
	if err != nil {
		return nil, err
	}
	return o, nil
}

// rankByDegree returns each vertex's position in ascending (degree, id)
// order, by a counting sort over degrees that visits vertices in id order.
func rankByDegree(g *Graph) []int32 {
	n := g.NumVertices()
	start := make([]int32, g.MaxDegree()+2)
	for v := int32(0); v < n; v++ {
		start[g.Degree(v)+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	rank := make([]int32, n)
	for v := int32(0); v < n; v++ {
		d := g.Degree(v)
		rank[v] = start[d]
		start[d]++
	}
	return rank
}

// ForEachTriangle calls fn(tid, e, e1, e2) exactly once for every triangle
// of the graph, from threads workers (tid identifies the calling worker).
// With the triangle's vertices u, v, w in ascending rank order, e = (u, v),
// e1 = (u, w) and e2 = (v, w). Workers claim edges in chunks from a shared
// cursor and poll ctx at every claim; each emits one span named name, and
// the closing barrier is a concur.barrier fault site. It returns the number
// of triangles visited, or ctx.Err() (or the injected fault) once every
// worker has stopped.
func (o *Oriented) ForEachTriangle(ctx context.Context, tr *obs.Trace, name string, threads int, fn func(tid int, e, e1, e2 int32)) (int64, error) {
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	rank, off, out := o.rank, o.off, o.out
	edges := o.g.edges
	m := int64(len(edges))
	var cursor, total atomic.Int64
	err := concur.ForThreads(ctx, tr, name, threads, func(tid int) {
		var tris int64
		for !concur.Canceled(ctx) {
			lo := cursor.Add(orientedGrain) - orientedGrain
			if lo >= m {
				break
			}
			for e := lo; e < min(lo+orientedGrain, m); e++ {
				u, v := edges[e].U, edges[e].V
				if rank[u] > rank[v] {
					u, v = v, u
				}
				i, bu := off[u], off[u+1]
				j, bv := off[v], off[v+1]
				for i < bu && j < bv {
					a, b := out[i]>>32, out[j]>>32
					switch {
					case a < b:
						i++
					case a > b:
						j++
					default:
						fn(tid, int32(e), int32(uint32(out[i])), int32(uint32(out[j])))
						tris++
						i++
						j++
					}
				}
			}
		}
		total.Add(tris)
	})
	return total.Load(), err
}
