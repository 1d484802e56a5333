package triangle

import (
	"context"
	"sort"
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

// orientedGrain is the dynamic chunk size of the enumeration stage, matching
// the merge kernel's grain so per-thread span items are comparable.
const orientedGrain = 512

// SupportsOrientedCtx computes per-edge supports with the compact-forward
// scheme behind the O(|E|^1.5) bound the paper cites: orient every edge
// from lower to higher (degree, id) rank, enumerate each triangle exactly
// once as an intersection of out-neighborhoods, and credit all three member
// edges. On skewed graphs the oriented lists (length ≤ O(√m)) are much
// shorter than hub adjacencies, so the kernel does far less intersection
// work than the merge kernel's symmetric per-edge scans.
//
// It has the merge kernel's full production contract: workers poll ctx at chunk-claim granularity and the
// call returns ctx.Err() with every goroutine joined once it fires, every
// parallel stage emits per-thread "Support" spans into tr, and each stage's
// barrier is a "concur.barrier" fault-injection site.
func SupportsOrientedCtx(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, error) {
	n := int(g.NumVertices())
	m := int(g.NumEdges())
	sup := make([]int32, m)
	if m == 0 {
		return sup, nil
	}
	if threads <= 0 {
		threads = concur.MaxThreads()
	}

	// Rank vertices by (degree, id); rank(u) < rank(v) orients u -> v.
	pos, err := rankByDegree(ctx, g, threads, tr)
	if err != nil {
		return nil, err
	}

	// Build the oriented CSR: out-neighbors of v are neighbors with higher
	// rank, kept with their edge IDs and sorted by rank for merging.
	outOff := make([]int64, n+1)
	err = concur.For(ctx, tr, "Support", n, threads, func(i int) {
		v := int32(i)
		var d int64
		for _, w := range g.Neighbors(v) {
			if pos[w] > pos[v] {
				d++
			}
		}
		outOff[i+1] = d
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		outOff[i+1] += outOff[i]
	}
	total := outOff[n]
	outRank := make([]int32, total) // rank of the head vertex
	outEID := make([]int32, total)
	err = concur.ForThreads(ctx, tr, "Support", threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		var scratch sortScratch // reused across every vertex of this thread
		for i := lo; i < hi; i++ {
			if i&0xFFF == 0 && concur.Canceled(ctx) {
				return
			}
			v := int32(i)
			nbrs := g.Neighbors(v)
			eids := g.IncidentEIDs(v)
			c := outOff[i]
			for j, w := range nbrs {
				if pos[w] > pos[v] {
					outRank[c] = pos[w]
					outEID[c] = eids[j]
					c++
				}
			}
			scratch.sortPairByRank(outRank[outOff[i]:c], outEID[outOff[i]:c])
		}
	})
	if err != nil {
		return nil, err
	}

	// Enumerate: for each oriented edge (v, w), intersect out(v) × out(w).
	// Triangle credits accumulate into per-thread arrays (reduced after the
	// barrier) when the footprint allows, killing the triple-atomic
	// contention of the naive scheme; otherwise each credit is an atomic add.
	edges := g.Edges()
	useAcc := int64(threads)*int64(m) <= accArrayLimit
	accs := make([][]int32, threads)
	var cursor atomic.Int64
	err = concur.ForThreads(ctx, tr, "Support", threads, func(tid int) {
		var acc []int32
		if useAcc {
			acc = make([]int32, m)
			accs[tid] = acc
		}
		var tris int64
		for {
			if concur.Canceled(ctx) {
				break
			}
			lo := int(cursor.Add(orientedGrain)) - orientedGrain
			if lo >= m {
				break
			}
			hi := lo + orientedGrain
			if hi > m {
				hi = m
			}
			for eid := lo; eid < hi; eid++ {
				e := edges[eid]
				u, v := e.U, e.V
				if pos[u] > pos[v] {
					u, v = v, u // orient: u -> v
				}
				i, bu := outOff[u], outOff[u+1]
				j, bv := outOff[v], outOff[v+1]
				var own int32
				for i < bu && j < bv {
					ri, rj := outRank[i], outRank[j]
					switch {
					case ri < rj:
						i++
					case ri > rj:
						j++
					default:
						// Triangle (u, v, w): credit all three edges.
						own++
						if acc != nil {
							acc[outEID[i]]++
							acc[outEID[j]]++
						} else {
							atomic.AddInt32(&sup[outEID[i]], 1)
							atomic.AddInt32(&sup[outEID[j]], 1)
						}
						i++
						j++
					}
				}
				if acc != nil {
					acc[eid] += own
				} else if own != 0 {
					atomic.AddInt32(&sup[eid], own)
				}
				tris += int64(own)
			}
		}
		cOrientedTriangles.Add(tris)
	})
	if err != nil {
		return nil, err
	}
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

// rankByDegree returns pos with pos[v] = rank of v under ascending
// (degree, id) order, built with a parallel stable counting sort: per-thread
// degree histograms over contiguous id blocks, a serial exclusive scan over
// (degree, thread), and a parallel placement pass. Stability by id falls out
// of the blocks being id-ordered and the scan visiting threads in order —
// no comparison sort anywhere.
func rankByDegree(ctx context.Context, g *graph.Graph, threads int, tr *obs.Trace) ([]int32, error) {
	n := int(g.NumVertices())
	pos := make([]int32, n)
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	maxPT := make([]int32, threads)
	err := concur.ForThreads(ctx, tr, "Support", threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		var max int32
		for v := lo; v < hi; v++ {
			if d := g.Degree(int32(v)); d > max {
				max = d
			}
		}
		maxPT[tid] = max
	})
	if err != nil {
		return nil, err
	}
	var maxDeg int32
	for _, d := range maxPT {
		if d > maxDeg {
			maxDeg = d
		}
	}
	buckets := int(maxDeg) + 1
	counts := make([][]int32, threads)
	err = concur.ForThreads(ctx, tr, "Support", threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		cnt := make([]int32, buckets)
		for v := lo; v < hi; v++ {
			cnt[g.Degree(int32(v))]++
		}
		counts[tid] = cnt
	})
	if err != nil {
		return nil, err
	}
	var base int32
	for d := 0; d < buckets; d++ {
		for t := 0; t < threads; t++ {
			c := counts[t][d]
			counts[t][d] = base // start offset for (degree d, thread t)
			base += c
		}
	}
	err = concur.ForThreads(ctx, tr, "Support", threads, func(tid int) {
		lo := tid * n / threads
		hi := (tid + 1) * n / threads
		cnt := counts[tid]
		for v := lo; v < hi; v++ {
			d := g.Degree(int32(v))
			pos[v] = cnt[d]
			cnt[d]++
		}
	})
	if err != nil {
		return nil, err
	}
	return pos, nil
}

// sortScratch holds the reusable buffers of sortPairByRank for one worker,
// so sorting a high-out-degree vertex costs at most one buffer growth per
// thread instead of three allocations per vertex.
type sortScratch struct {
	idx, tr, te []int32
}

// grow returns the three scratch slices sized to k, reusing capacity.
func (s *sortScratch) grow(k int) (idx, tr, te []int32) {
	if cap(s.idx) < k {
		s.idx = make([]int32, k)
		s.tr = make([]int32, k)
		s.te = make([]int32, k)
	}
	return s.idx[:k], s.tr[:k], s.te[:k]
}

// sortPairByRank sorts ranks ascending, permuting eids identically.
// Small runs use insertion sort in place; larger runs sort an index
// permutation drawn from the thread's scratch buffers.
func (s *sortScratch) sortPairByRank(ranks, eids []int32) {
	if len(ranks) < 24 {
		for i := 1; i < len(ranks); i++ {
			r, e := ranks[i], eids[i]
			j := i - 1
			for j >= 0 && ranks[j] > r {
				ranks[j+1], eids[j+1] = ranks[j], eids[j]
				j--
			}
			ranks[j+1], eids[j+1] = r, e
		}
		return
	}
	idx, tr, te := s.grow(len(ranks))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(x, y int) bool { return ranks[idx[x]] < ranks[idx[y]] })
	for i, p := range idx {
		tr[i], te[i] = ranks[p], eids[p]
	}
	copy(ranks, tr)
	copy(eids, te)
}
