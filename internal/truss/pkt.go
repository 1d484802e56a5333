package truss

import (
	"context"
	"sync/atomic"

	"equitruss/internal/concur"
	"equitruss/internal/ds"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// Counters specific to the scan-free PKT kernel. Seeds and captures
// together account for every edge exactly once (pinned by tests); rehomes
// and compactions expose how much lazy bookkeeping the instance needed.
var (
	cPeelSeeds = obs.GetCounter("truss_peel_seed_admissions",
		"edges admitted to a level's initial frontier (bucket or scan seeded)")
	cPeelRehomes = obs.GetCounter("truss_peel_pending_rehomes",
		"edges rehomed into a future level's pending bucket after decrements")
	cPeelCompactions = obs.GetCounter("truss_peel_adj_compactions",
		"per-vertex adjacency compactions performed by the pkt peel kernel")
)

// pktChunk is the dynamic-scheduling grain over frontier slices: small
// enough that one hub-heavy chunk cannot straggle a whole sub-round, large
// enough that the atomic chunk claim is amortized.
const pktChunk = 64

// pktGallopRatio: when one endpoint's live list is at least this many times
// longer than the other's, the intersection switches from the linear merge
// to galloping probes of the long list — O(small · log(big)) instead of
// O(small + big), the difference between paying a hub's full degree on
// every incident peel and paying a few cache lines. The moving lower bound
// keeps galloping near-linear even on balanced lists, so the crossover sits
// low.
const pktGallopRatio = 2

// DecomposePKTCtx is the scan-free parallel peeling in the style of PKT
// (Kabir & Madduri) with Blanco–Low-style fine-grained load balancing. It
// produces exactly DecomposeSerialCtx's trussness.
//
// Where the level-synchronous kernel rebuilds each level's frontier with a
// full-edge rescan, this kernel never rescans:
//
//   - Initial frontiers come from a counting sort of edges by starting
//     support (one O(m) pass), so level L's seed is read straight out of
//     bucket L.
//   - Within a level, an edge enters the next frontier exactly once — at
//     the atomic decrement that first drops its support to the active
//     level. Unit decrements make the crossing unique, so capture is
//     idempotent by construction.
//   - Edges whose support falls between the active level and their bucket
//     (so neither capture nor their stale bucket would find them) are
//     rehomed at level end into a pending bucket at their new support;
//     a per-edge stamp dedups the rehome list at one entry per level.
//   - Empty levels are jumped by walking the bucket index, touching no
//     dead edges.
//
// Triangle enumeration runs over a private copy of the adjacency that is
// lazily compacted: peeling an edge counts a dead slot against both
// endpoints, and once a quarter of a vertex's list is dead the survivors
// are copied forward (PKT's periodic graph compaction, applied per vertex).
// Intersections therefore shrink with the surviving graph instead of
// paying the original degrees all the way down.
//
// Frontier slices are processed under chunk-claimed dynamic scheduling
// (an atomic cursor over pktChunk-sized slices) so one hub edge cannot
// straggle a statically-partitioned sub-round. The triangle shared between
// two simultaneously peeled edges is settled by the same edge-ID tie-break
// as the level-synchronous kernel.
func DecomposePKTCtx(ctx context.Context, g *graph.Graph, supports []int32, threads int, tr *obs.Trace) (tau []int32, kmax int32, err error) {
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
	var maxSup int32
	for _, s := range sup {
		if s > maxSup {
			maxSup = s
		}
	}

	// Private compacted adjacency: CSR slot ranges never move, but only the
	// first alen[v] slots of v's range are meaningful and stay neighbor-
	// sorted. deadCnt[v] counts peeled edges still occupying slots.
	n := g.NumVertices()
	off := make([]int64, n+1)
	for v := int32(0); v < n; v++ {
		off[v+1] = off[v] + int64(g.Degree(v))
	}
	nbr := make([]int32, off[n])
	nid := make([]int32, off[n])
	alen := make([]int32, n)
	deadCnt := make([]int32, n)
	if err := concur.For(ctx, tr, "TrussDecomp", int(n), threads, func(i int) {
		v := int32(i)
		copy(nbr[off[v]:off[v+1]], g.Neighbors(v))
		copy(nid[off[v]:off[v+1]], g.IncidentEIDs(v))
		alen[v] = int32(off[v+1] - off[v])
	}); err != nil {
		return nil, 0, err
	}

	// Counting-sort edges by starting support: byLevel[bstart[L]:bstart[L+1]]
	// is level L's seed bucket. One O(m + maxSup) pass replaces the
	// per-level full-edge rescans of the level-synchronous kernel.
	bstart := make([]int32, maxSup+2)
	for _, s := range sup {
		bstart[s+1]++
	}
	for s := int32(1); s <= maxSup+1; s++ {
		bstart[s] += bstart[s-1]
	}
	byLevel := make([]int32, m)
	fill := make([]int32, maxSup+1)
	for e := int32(0); e < m; e++ {
		s := sup[e]
		byLevel[bstart[s]+fill[s]] = e
		fill[s]++
	}

	deleted := ds.NewBitset(int(m))
	inCurr := ds.NewBitset(int(m))
	// pending[L] holds edges rehomed to support L after decrements;
	// dirtyStamp dedups the per-level rehome candidates (stamp = level+1,
	// zero means never touched).
	pending := make([][]int32, maxSup+2)
	dirtyStamp := make([]int32, m)

	nextBufs := make([][]int32, threads)
	dirtyBufs := make([][]int32, threads)
	touchBufs := make([][]int32, threads)

	edges := g.Edges()
	remaining := int64(m)
	level := int32(0)
	var curr []int32

	for remaining > 0 {
		if err := ctxDone(ctx); err != nil {
			return nil, 0, err
		}
		// Seed the frontier for this level from the initial bucket plus any
		// rehomed pending edges. Entries are admitted at most once: bucket
		// and pending membership are mutually exclusive (a pending entry
		// requires a decrement below the starting support), and stale
		// entries are filtered by the deleted/support check.
		curr = curr[:0]
		var seeds int64
		for i := bstart[level]; i < bstart[level+1]; i++ {
			if e := byLevel[i]; !deleted.Get(int(e)) && sup[e] == level {
				curr = append(curr, e)
				seeds++
			}
		}
		for _, e := range pending[level] {
			if !deleted.Get(int(e)) && sup[e] == level {
				curr = append(curr, e)
				seeds++
			}
		}
		pending[level] = nil
		cPeelSeeds.Add(seeds)
		if len(curr) == 0 {
			// Nothing peels at this level: jump it without touching any
			// dead edge. remaining > 0 guarantees a higher seed exists.
			cPeelLevelSkips.Inc()
			level++
			continue
		}
		cPeelLevels.Inc()

		for len(curr) > 0 {
			cPeelSubrounds.Inc()
			nf := len(curr)
			if err := concur.For(ctx, tr, "TrussDecomp", nf, threads, func(i int) { inCurr.SetAtomic(int(curr[i])) }); err != nil {
				return nil, 0, err
			}
			for t := range nextBufs {
				nextBufs[t] = nextBufs[t][:0]
				touchBufs[t] = touchBufs[t][:0]
			}
			// Chunk-claimed dynamic scheduling over the frontier: workers
			// race an atomic cursor for pktChunk-sized slices, so skewed
			// per-edge triangle work cannot straggle one static block.
			var cursor atomic.Int64
			err := concur.ForThreads(ctx, tr, "TrussDecomp", threads, func(tid int) {
				next := nextBufs[tid]
				dirty := dirtyBufs[tid]
				touch := touchBufs[tid]
				var decs int64
				stampLevel := level + 1
				for {
					if concur.Canceled(ctx) {
						break
					}
					lo := int(cursor.Add(pktChunk)) - pktChunk
					if lo >= nf {
						break
					}
					hi := lo + pktChunk
					if hi > nf {
						hi = nf
					}
					for i := lo; i < hi; i++ {
						e := curr[i]
						tau[e] = level + 2
						u, v := edges[e].U, edges[e].V
						touch = append(touch, u, v)
						// Intersect the compacted live prefixes. The triangle
						// handling is symmetric in (e1, e2), so orienting the
						// intersection from the shorter list is free.
						ub, ue := off[u], off[u]+int64(alen[u])
						vb, ve := off[v], off[v]+int64(alen[v])
						if ue-ub > ve-vb {
							ub, ue, vb, ve = vb, ve, ub, ue
						}
						if ve-vb >= pktGallopRatio*(ue-ub) {
							// Skewed endpoints: probe the long list by
							// galloping from a monotone lower bound instead of
							// streaming a hub's whole adjacency per peel.
							li := vb
							for si := ub; si < ue && li < ve; si++ {
								a := nbr[si]
								if nbr[li] < a {
									step := int64(1)
									j := li + 1
									for j < ve && nbr[j] < a {
										li = j
										j += step
										step <<= 1
									}
									if j > ve {
										j = ve
									}
									lo, hi := li+1, j
									for lo < hi {
										mid := (lo + hi) >> 1
										if nbr[mid] < a {
											lo = mid + 1
										} else {
											hi = mid
										}
									}
									li = lo
								}
								if li < ve && nbr[li] == a {
									next, dirty = pktTriangle(sup, dirtyStamp, deleted, inCurr,
										e, nid[si], nid[li], level, stampLevel, next, dirty, &decs)
									li++
								}
							}
						} else {
							// Balanced endpoints: linear sorted merge.
							for ub < ue && vb < ve {
								a, b := nbr[ub], nbr[vb]
								switch {
								case a < b:
									ub++
								case a > b:
									vb++
								default:
									next, dirty = pktTriangle(sup, dirtyStamp, deleted, inCurr,
										e, nid[ub], nid[vb], level, stampLevel, next, dirty, &decs)
									ub++
									vb++
								}
							}
						}
					}
				}
				nextBufs[tid] = next
				dirtyBufs[tid] = dirty
				touchBufs[tid] = touch
				cPeelDecrements.Add(decs)
				cPeelCaptures.Add(int64(len(next)))
			})
			if err != nil {
				return nil, 0, err
			}
			// Retire the processed frontier and charge each endpoint one
			// dead adjacency slot.
			if err := concur.For(ctx, tr, "TrussDecomp", nf, threads, func(i int) {
				e := curr[i]
				inCurr.ClearAtomic(int(e))
				deleted.SetAtomic(int(e))
				atomic.AddInt32(&deadCnt[edges[e].U], 1)
				atomic.AddInt32(&deadCnt[edges[e].V], 1)
			}); err != nil {
				return nil, 0, err
			}
			// Compact touched vertices whose lists turned half dead. The
			// CAS on deadCnt claims the vertex, so duplicate touch entries
			// across threads compact at most once, and nothing reads a list
			// concurrently (intersections only run in the processing pass).
			if err := concur.ForThreads(ctx, tr, "TrussDecomp", threads, func(tid int) {
				var comps int64
				for _, v := range touchBufs[tid] {
					d := atomic.LoadInt32(&deadCnt[v])
					if d == 0 {
						continue
					}
					// Claim the vertex before reading alen: the claim
					// holder is the only thread allowed to touch v's list
					// or length, so duplicate touch entries are safe.
					if !atomic.CompareAndSwapInt32(&deadCnt[v], d, 0) {
						continue
					}
					if 4*d < alen[v] {
						atomic.AddInt32(&deadCnt[v], d) // too few dead: unclaim
						continue
					}
					w := off[v]
					for r := off[v]; r < off[v]+int64(alen[v]); r++ {
						if !deleted.Get(int(nid[r])) {
							nbr[w] = nbr[r]
							nid[w] = nid[r]
							w++
						}
					}
					alen[v] = int32(w - off[v])
					comps++
				}
				cPeelCompactions.Add(comps)
			}); err != nil {
				return nil, 0, err
			}
			remaining -= int64(nf)
			curr = curr[:0]
			for t := range nextBufs {
				curr = append(curr, nextBufs[t]...)
			}
		}

		// Rehome this level's dirty survivors: edges whose support dropped
		// but landed above the active level belong in the bucket of their
		// new support, where the seed gather of that level will find them.
		var rehomes int64
		for t := range dirtyBufs {
			for _, e := range dirtyBufs[t] {
				if deleted.Get(int(e)) {
					continue
				}
				if s := sup[e]; s > level {
					pending[s] = append(pending[s], e)
					rehomes++
				}
			}
			dirtyBufs[t] = dirtyBufs[t][:0]
		}
		cPeelRehomes.Add(rehomes)
		level++
	}
	return tau, KMax(tau), nil
}

// pktTriangle settles one surviving triangle (e, e1, e2) found while
// peeling e: dead partners are skipped, the triangle shared with another
// frontier edge is decremented by exactly one owner (the smaller edge ID —
// the same tie-break as the level-synchronous kernel), and a fully in-
// frontier triangle decrements nothing. The handling is symmetric in
// (e1, e2), so callers may pass the pair in either order.
func pktTriangle(sup, dirtyStamp []int32, deleted, inCurr *ds.Bitset, e, e1, e2, level, stampLevel int32, next, dirty []int32, decs *int64) ([]int32, []int32) {
	if deleted.Get(int(e1)) || deleted.Get(int(e2)) {
		return next, dirty
	}
	c1 := inCurr.Get(int(e1))
	c2 := inCurr.Get(int(e2))
	switch {
	case c1 && c2:
		// Whole triangle peeled this sub-round.
	case c1:
		// e and e1 peeled together; e owns the decrement of e2 iff it has
		// the smaller ID.
		if e < e1 {
			next, dirty = pktDec(sup, dirtyStamp, e2, level, stampLevel, next, dirty, decs)
		}
	case c2:
		if e < e2 {
			next, dirty = pktDec(sup, dirtyStamp, e1, level, stampLevel, next, dirty, decs)
		}
	default:
		next, dirty = pktDec(sup, dirtyStamp, e1, level, stampLevel, next, dirty, decs)
		next, dirty = pktDec(sup, dirtyStamp, e2, level, stampLevel, next, dirty, decs)
	}
	return next, dirty
}

// pktDec applies one atomic support decrement to edge e and routes the
// result: crossing exactly into the active level captures e into the next
// frontier (the unit decrement makes the crossing unique, so an edge is
// captured at most once per decomposition); landing above the level
// records e once per level in the dirty list via a stamp CAS, so the
// level-end rehome can move it to its new bucket.
func pktDec(sup, dirtyStamp []int32, e, level, stampLevel int32, next, dirty []int32, decs *int64) ([]int32, []int32) {
	*decs++
	v := atomic.AddInt32(&sup[e], -1)
	if v == level {
		next = append(next, e)
	} else if v > level {
		if old := atomic.LoadInt32(&dirtyStamp[e]); old != stampLevel &&
			atomic.CompareAndSwapInt32(&dirtyStamp[e], old, stampLevel) {
			dirty = append(dirty, e)
		}
	}
	return next, dirty
}

// ctxDone polls a context tolerating nil.
func ctxDone(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
