package core

import (
	"context"
	"slices"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// spEdgeCancelStride is how many edges a Baseline SpEdge worker scans
// between ctx polls inside its per-thread block.
const spEdgeCancelStride = 2048

// packPair packs a canonical (low-root, high-root) superedge into a single
// comparable word for hashing, sorting, and deduplication.
func packPair(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func unpackPair(p uint64) (a, b int32) { return int32(p >> 32), int32(uint32(p)) }

// dupSlots is the size of each SpEdge worker's duplicate filter.
const dupSlots = 1024

// emptySlot marks an unused filter slot. A packed pair's high word is a
// non-negative root, so no real pair equals it.
const emptySlot = ^uint64(0)

// dupFilter is a direct-mapped cache of the superedges a SpEdge worker
// emitted recently. Triangles that share a supernode pair usually lie
// close together in edge order, so most repeats are dropped here instead
// of being copied through the SmGraph merge.
type dupFilter [dupSlots]uint64

// clear empties every slot.
func (f *dupFilter) clear() {
	for i := range f {
		f[i] = emptySlot
	}
}

// seen reports whether p sits in its slot, and otherwise puts it there.
func (f *dupFilter) seen(p uint64) bool {
	s := &f[p*0x9E3779B97F4A7C15>>54]
	if *s == p {
		return true
	}
	*s = p
	return false
}

// spEdgeWorker is one SpEdge thread's filter and output; the inline filter
// keeps the output headers of neighboring workers on separate cache lines.
type spEdgeWorker struct {
	filter dupFilter
	out    []uint64
}

// spEdgeFlat is Algorithm 3 over the flat τ/Π arrays (C-Optimal and
// Afforest), visiting each triangle once through the degree-oriented view:
// a triangle links the supernode of its minimum-trussness edges to the
// supernode of each strictly higher edge. Each thread appends to its own
// subset (ln. 1, 10, 12), avoiding races by construction, after its
// duplicate filter. Workers poll ctx at every chunk claim; a canceled call
// returns ctx.Err() and no subsets.
func spEdgeFlat(ctx context.Context, og *graph.Oriented, tau, pi []int32, threads int, tr *obs.Trace) ([][]uint64, error) {
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	workers := make([]spEdgeWorker, threads)
	for t := range workers {
		workers[t].filter.clear()
	}
	emit := func(w *spEdgeWorker, lo, hi int32) {
		if p := packPair(pi[lo], pi[hi]); !w.filter.seen(p) {
			w.out = append(w.out, p)
		}
	}
	_, err := og.ForEachTriangle(ctx, tr, "SpEdge", threads, func(tid int, e, e1, e2 int32) {
		k, k1, k2 := tau[e], tau[e1], tau[e2]
		kmin := min(k, k1, k2)
		lo := e
		if k1 == kmin {
			lo = e1
		} else if k2 == kmin {
			lo = e2
		}
		w := &workers[tid]
		if k > kmin {
			emit(w, lo, e)
		}
		if k1 > kmin {
			emit(w, lo, e1)
		}
		if k2 > kmin {
			emit(w, lo, e2)
		}
	})
	if err != nil {
		return nil, err
	}
	spEdges := make([][]uint64, threads)
	for t, w := range workers {
		spEdges[t] = w.out
		cSpEdgeEmitted.Add(int64(len(w.out)))
	}
	return spEdges, nil
}

// spEdgeBaseline is Algorithm 3 with the Baseline variant's dictionary
// lookups for trussness and edge identity (the same indirection its SpNode
// pays). Cancellation mirrors spEdgeFlat.
func spEdgeBaseline(ctx context.Context, g *graph.Graph, tau, pi []int32, dict edgeDict, threads int, tr *obs.Trace) ([][]uint64, error) {
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	m := int(g.NumEdges())
	edges := g.Edges()
	spEdges := make([][]uint64, threads)
	err := concur.ForThreads(ctx, tr, "SpEdge", threads, func(tid int) {
		lo := tid * m / threads
		hi := (tid + 1) * m / threads
		var local []uint64
		for i := lo; i < hi; i++ {
			if (i-lo)%spEdgeCancelStride == 0 && concur.Canceled(ctx) {
				return
			}
			e := int32(i)
			k := tau[e]
			if k < MinK {
				continue
			}
			u, v := edges[e].U, edges[e].V
			nu, nv := g.Neighbors(u), g.Neighbors(v)
			a, b := 0, 0
			for a < len(nu) && b < len(nv) {
				switch {
				case nu[a] < nv[b]:
					a++
				case nu[a] > nv[b]:
					b++
				default:
					w := nu[a]
					a++
					b++
					e1, k1 := unpackInfo(dict[packKey(min32(u, w), max32(u, w))])
					e2, k2 := unpackInfo(dict[packKey(min32(v, w), max32(v, w))])
					lowest := min32(k, min32(k1, k2))
					if k > lowest {
						if lowest == k1 {
							local = append(local, packPair(pi[e1], pi[e]))
						}
						if lowest == k2 {
							local = append(local, packPair(pi[e2], pi[e]))
						}
					}
				}
			}
		}
		spEdges[tid] = local
		cSpEdgeEmitted.Add(int64(len(local)))
	})
	if err != nil {
		return nil, err
	}
	return spEdges, nil
}

// smGraphMerge is Algorithm 4: thread-local superedge subsets are hash-
// partitioned to destination threads, each destination sorts and
// deduplicates its partition, and the partitions are concatenated into the
// final superedge list via a prefix-summed parallel copy. Partitioning
// counts first and then scatters each source straight into its slot of the
// destination buffer. Cancellation is checked at each phase barrier.
func smGraphMerge(ctx context.Context, spEdges [][]uint64, threads int, tr *obs.Trace) ([]uint64, error) {
	if threads <= 0 {
		threads = concur.MaxThreads()
	}
	nsrc := len(spEdges)
	dest := func(p uint64) int { return int((p * 0x9E3779B97F4A7C15 >> 33) % uint64(threads)) }
	// ln. 6–11: each source thread counts its superedges per destination,
	// a prefix sum over (destination, source) places every source's run, and
	// each source scatters into its runs.
	counts := make([][]int, nsrc)
	if err := concur.ForThreads(ctx, tr, "SmGraph", nsrc, func(src int) {
		c := make([]int, threads)
		for _, p := range spEdges[src] {
			c[dest(p)]++
		}
		counts[src] = c
	}); err != nil {
		return nil, err
	}
	parts := make([][]uint64, threads)
	for d := range parts {
		n := 0
		for src := range counts {
			c := counts[src][d]
			counts[src][d] = n
			n += c
		}
		parts[d] = make([]uint64, n)
	}
	if err := concur.ForThreads(ctx, tr, "SmGraph", nsrc, func(src int) {
		at := counts[src]
		for _, p := range spEdges[src] {
			d := dest(p)
			parts[d][at[d]] = p
			at[d]++
		}
	}); err != nil {
		return nil, err
	}
	// ln. 13–16: each destination sorts and removes duplicates.
	var deduped atomic.Int64
	if err := concur.ForThreads(ctx, tr, "SmGraph", threads, func(dst int) {
		all := parts[dst]
		slices.Sort(all)
		parts[dst] = slices.Compact(all)
		deduped.Add(int64(len(all) - len(parts[dst])))
	}); err != nil {
		return nil, err
	}
	// ln. 17–19: size the final buffer by reduction and merge in parallel.
	offsets := make([]int, threads+1)
	for d, p := range parts {
		offsets[d+1] = offsets[d] + len(p)
	}
	final := make([]uint64, offsets[threads])
	if err := concur.ForThreads(ctx, tr, "SmGraph", threads, func(dst int) {
		copy(final[offsets[dst]:], parts[dst])
	}); err != nil {
		return nil, err
	}
	cSmGraphDeduped.Add(deduped.Load())
	cSmGraphFinal.Add(int64(len(final)))
	return final, nil
}
