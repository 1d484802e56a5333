package core

import (
	"context"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// MinK is the smallest trussness that forms supernodes: k-truss communities
// are defined for k >= 3 (Definition 7).
const MinK = 3

// packKey packs a canonical vertex pair into a map key for the Baseline
// variant's edge dictionary.
func packKey(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }

// packInfo packs (eid, tau) into the Baseline dictionary value.
func packInfo(eid, tau int32) int64 { return int64(eid)<<32 | int64(uint32(tau)) }

func unpackInfo(v int64) (eid, tau int32) { return int32(v >> 32), int32(uint32(v)) }

// edgeDict is the Baseline variant's "dictionary on the entire edge set":
// a read-only hash map from packed endpoints to (edge ID, trussness). The
// C-Optimal variant replaces every lookup through this structure with the
// CSR-aligned edge-ID array and a flat trussness buffer — exactly the
// optimization described in §3.3 of the paper.
type edgeDict map[int64]int64

func buildEdgeDict(g *graph.Graph, tau []int32) edgeDict {
	m := int32(g.NumEdges())
	dict := make(edgeDict, m)
	for e := int32(0); e < m; e++ {
		ed := g.Edge(e)
		dict[packKey(ed.U, ed.V)] = packInfo(e, tau[e])
	}
	return dict
}

// phiGroups builds the Φ_k edge groups (Init kernel, Algorithm 2 ln. 3–5)
// and returns them with kmax.
func phiGroups(g *graph.Graph, tau []int32, threads int) (phi [][]int32, kmax int32) {
	m := int(g.NumEdges())
	kmax = concur.MaxInt32(m, threads, MinK-1, func(i int) int32 { return tau[i] })
	phi = make([][]int32, kmax+1)
	for e := 0; e < m; e++ {
		if tau[e] >= MinK {
			phi[tau[e]] = append(phi[tau[e]], int32(e))
		}
	}
	return phi, kmax
}

// ---------------------------------------------------------------------------
// Baseline SpNode: Shiloach–Vishkin over edge entities with hash-map
// dictionaries (Algorithm 2 as written).
// ---------------------------------------------------------------------------

// spNodeBaseline computes the supernode parent array Π with SV connected
// components where every τ lookup goes through the edge dictionary and Π
// itself lives in a lock-striped sharded map. Returns Π flattened to roots
// (Π[e] = NoSupernode for τ=2 edges). Cancellation is checked at every
// scheduler barrier, so the SV round loops exit promptly once ctx fires.
func spNodeBaseline(ctx context.Context, g *graph.Graph, tau []int32, dict edgeDict, phi [][]int32, threads int, tr *obs.Trace) ([]int32, error) {
	m := int32(g.NumEdges())
	pi := ds.NewShardedMap(int(m))
	// Each edge initially forms its own component (ln. 1–2).
	if err := concur.For(ctx, tr, "SpNode", int(m), threads, func(i int) {
		if tau[i] >= MinK {
			pi.Store(int64(i), int32(i))
		}
	}); err != nil {
		return nil, err
	}
	edges := g.Edges()
	for k := MinK; k < len(phi); k++ {
		edgesK := phi[k]
		if len(edgesK) == 0 {
			continue
		}
		hooking := int32(1)
		for hooking != 0 {
			hooking = 0
			// Hooking phase (ln. 10–20).
			cSVHookRounds.Inc()
			err := concur.ForRangeDynamic(ctx, tr, "SpNode", len(edgesK), threads, 256, func(lo, hi int) {
				localHook := false
				for i := lo; i < hi; i++ {
					e := edgesK[i]
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
							// Dictionary lookups for both triangle edges —
							// the cost C-Opt removes.
							i1 := dict[packKey(min32(u, w), max32(u, w))]
							i2 := dict[packKey(min32(v, w), max32(v, w))]
							e1, k1 := unpackInfo(i1)
							e2, k2 := unpackInfo(i2)
							if k1 == int32(k) && k2 >= int32(k) {
								if svHookSharded(pi, e, e1) {
									localHook = true
								}
							}
							if k2 == int32(k) && k1 >= int32(k) {
								if svHookSharded(pi, e, e2) {
									localHook = true
								}
							}
						}
					}
				}
				if localHook {
					atomic.StoreInt32(&hooking, 1)
				}
			})
			if err != nil {
				return nil, err
			}
			// Shortcut phase (ln. 21–23).
			cSVShortcutRounds.Inc()
			if err := concur.ForRangeDynamic(ctx, tr, "SpNode", len(edgesK), threads, 512, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					e := int64(edgesK[i])
					for {
						p, _ := pi.Load(e)
						gp, _ := pi.Load(int64(p))
						if p == gp {
							break
						}
						pi.Store(e, gp)
					}
				}
			}); err != nil {
				return nil, err
			}
		}
	}
	// Materialize the final flat Π for the downstream kernels.
	out := make([]int32, m)
	if err := concur.For(ctx, tr, "SpNode", int(m), threads, func(i int) {
		if tau[i] < MinK {
			out[i] = NoSupernode
			return
		}
		e := int64(i)
		for {
			p, _ := pi.Load(e)
			gp, _ := pi.Load(int64(p))
			if p == gp {
				out[i] = p
				return
			}
			e = int64(gp)
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// svHookSharded attempts the SV hook "Π(Π(e1)) ← Π(e) if Π(e) < Π(e1) and
// Π(e1) is a root" against the sharded-map Π store.
func svHookSharded(pi *ds.ShardedMap, e, e1 int32) bool {
	pe, _ := pi.Load(int64(e))
	pe1, _ := pi.Load(int64(e1))
	if pe < pe1 {
		if p, _ := pi.Load(int64(pe1)); p == pe1 {
			if pi.CompareAndSwap(int64(pe1), pe1, pe) {
				return true
			}
			cHookCASFailures.Inc()
		}
	}
	return false
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// C-Optimal SpNode: SV with CSR-aligned lookups, a contiguous Π buffer, and
// the early skip when Π(e) = Π(e1) (§3.3).
// ---------------------------------------------------------------------------

// spNodeCOptimal computes Π with the cache-optimized SV: trussness comes
// straight from the flat tau array indexed by the CSR edge-ID slots, Π is a
// contiguous int32 buffer updated with atomics, and already-merged partners
// are skipped before any hooking work. Cancellation is checked at every
// scheduler barrier.
func spNodeCOptimal(ctx context.Context, g *graph.Graph, tau []int32, phi [][]int32, threads int, tr *obs.Trace) ([]int32, error) {
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
	for k := MinK; k < len(phi); k++ {
		edgesK := phi[k]
		if len(edgesK) == 0 {
			continue
		}
		hooking := int32(1)
		for hooking != 0 {
			hooking = 0
			cSVHookRounds.Inc()
			err := concur.ForRangeDynamic(ctx, tr, "SpNode", len(edgesK), threads, 256, func(lo, hi int) {
				localHook := false
				for i := lo; i < hi; i++ {
					e := edgesK[i]
					g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
						k1, k2 := tau[e1], tau[e2]
						if k1 == int32(k) && k2 >= int32(k) && svHookFlat(pi, e, e1) {
							localHook = true
						}
						if k2 == int32(k) && k1 >= int32(k) && svHookFlat(pi, e, e2) {
							localHook = true
						}
						return true
					})
				}
				if localHook {
					atomic.StoreInt32(&hooking, 1)
				}
			})
			if err != nil {
				return nil, err
			}
			cSVShortcutRounds.Inc()
			if err := concur.ForRangeDynamic(ctx, tr, "SpNode", len(edgesK), threads, 512, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					e := edgesK[i]
					for {
						p := atomic.LoadInt32(&pi[e])
						gp := atomic.LoadInt32(&pi[p])
						if p == gp {
							break
						}
						atomic.StoreInt32(&pi[e], gp)
					}
				}
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := flattenPi(ctx, pi, tau, threads); err != nil {
		return nil, err
	}
	return pi, nil
}

// svHookFlat is the SV hook against the contiguous Π buffer, with the
// C-Optimal early skip when both edges already share a parent.
func svHookFlat(pi []int32, e, e1 int32) bool {
	pe := atomic.LoadInt32(&pi[e])
	pe1 := atomic.LoadInt32(&pi[e1])
	if pe == pe1 {
		return false // C-Opt skip: already merged
	}
	if pe < pe1 && atomic.LoadInt32(&pi[pe1]) == pe1 {
		if atomic.CompareAndSwapInt32(&pi[pe1], pe1, pe) {
			return true
		}
		cHookCASFailures.Inc()
	}
	return false
}

// flattenPi points every τ>=3 edge at its component root.
func flattenPi(ctx context.Context, pi []int32, tau []int32, threads int) error {
	return concur.For(ctx, nil, "", len(pi), threads, func(i int) {
		if tau[i] < MinK {
			return
		}
		e := int32(i)
		r := atomic.LoadInt32(&pi[e])
		for {
			rr := atomic.LoadInt32(&pi[r])
			if rr == r {
				break
			}
			r = rr
		}
		atomic.StoreInt32(&pi[e], r)
	})
}

// ---------------------------------------------------------------------------
// Afforest SpNode: sampling-based CC (Sutton et al.) over edge entities.
// ---------------------------------------------------------------------------

// afforestNeighborRounds is the number of link rounds run over a bounded
// prefix of each edge's triangle partners before component approximation.
const afforestNeighborRounds = 2

// afforestSampleSize is the number of edges sampled to identify the
// largest intermediate component.
const afforestSampleSize = 1024

// spNodeAfforest computes Π with the Afforest strategy: a couple of cheap
// link rounds over the first triangle partners approximate the components;
// the dominant component is then identified by sampling and its members are
// skipped in the exhaustive finalization pass, which links every remaining
// partner of every edge outside it. Exactness is preserved because the
// final pass processes all edges not yet in the dominant component and the
// partner relation is symmetric. Cancellation is checked at every scheduler
// barrier (link rounds, compression passes, finalization, materialization).
func spNodeAfforest(ctx context.Context, g *graph.Graph, tau []int32, threads int, tr *obs.Trace) ([]int32, error) {
	m := int32(g.NumEdges())
	cuf := ds.NewConcurrentUnionFind(int(m))
	// Link rounds over the r-th valid partner of each edge.
	for r := 0; r < afforestNeighborRounds; r++ {
		err := concur.ForRangeDynamic(ctx, tr, "SpNode", int(m), threads, 512, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e := int32(i)
				k := tau[e]
				if k < MinK {
					continue
				}
				seen := 0
				g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
					if tau[e1] == k && tau[e2] >= k {
						if seen == r {
							cuf.Union(e, e1)
							return false
						}
						seen++
					}
					if tau[e2] == k && tau[e1] >= k {
						if seen == r {
							cuf.Union(e, e2)
							return false
						}
						seen++
					}
					return true
				})
			}
		})
		if err != nil {
			return nil, err
		}
		if err := compressAll(ctx, cuf, threads); err != nil {
			return nil, err
		}
	}
	// Component approximation: sample to find the dominant component.
	dominant := sampleDominant(cuf, tau, m)
	// Finalization: exhaustively link everything outside the dominant
	// component, skipping the (typically large) fraction already settled.
	err := concur.ForRangeDynamic(ctx, tr, "SpNode", int(m), threads, 512, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := int32(i)
			k := tau[e]
			if k < MinK {
				continue
			}
			if dominant >= 0 && cuf.Find(e) == dominant {
				continue
			}
			g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
				if tau[e1] == k && tau[e2] >= k {
					cuf.Union(e, e1)
				}
				if tau[e2] == k && tau[e1] >= k {
					cuf.Union(e, e2)
				}
				return true
			})
		}
	})
	if err != nil {
		return nil, err
	}
	if err := compressAll(ctx, cuf, threads); err != nil {
		return nil, err
	}
	pi := make([]int32, m)
	if err := concur.For(ctx, tr, "SpNode", int(m), threads, func(i int) {
		if tau[i] < MinK {
			pi[i] = NoSupernode
		} else {
			pi[i] = cuf.Find(int32(i))
		}
	}); err != nil {
		return nil, err
	}
	cUnionFindRetries.Add(cuf.Retries())
	return pi, nil
}

// compressAll path-compresses every element (parallel Find pass).
func compressAll(ctx context.Context, cuf *ds.ConcurrentUnionFind, threads int) error {
	return concur.For(ctx, nil, "", cuf.Len(), threads, func(i int) {
		cuf.Find(int32(i))
	})
}

// sampleDominant returns the most frequent component root among a fixed
// sample of τ>=3 edges, or -1 when none qualify. The sampled total and the
// dominant component's hit count feed the afforest sampling counters — the
// hit ratio is the fraction of work the finalization pass gets to skip.
func sampleDominant(cuf *ds.ConcurrentUnionFind, tau []int32, m int32) int32 {
	if m == 0 {
		return -1
	}
	counts := make(map[int32]int)
	stride := m / afforestSampleSize
	if stride < 1 {
		stride = 1
	}
	sampled := 0
	for e := int32(0); e < m; e += stride {
		if tau[e] >= MinK {
			counts[cuf.Find(e)]++
			sampled++
		}
	}
	best, bestN := int32(-1), 0
	for r, n := range counts {
		if n > bestN {
			best, bestN = r, n
		}
	}
	cAffSampleTotal.Add(int64(sampled))
	cAffSampleHits.Add(int64(bestN))
	return best
}
