package community

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"equitruss/internal/concur"
	"equitruss/internal/core"
	"equitruss/internal/ds"
	"equitruss/internal/obs"
)

var (
	cHierBuildNodes = obs.GetCounter("hierarchy_build_nodes",
		"merge-forest nodes created by hierarchy precomputation")
	cHierBuildLevels = obs.GetCounter("hierarchy_build_levels",
		"k levels swept by hierarchy precomputation")
	cHierBuildNS = obs.GetCounter("hierarchy_build_ns",
		"cumulative wall nanoseconds spent building community hierarchies")
	cHierQueryHits = obs.GetCounter("query_hierarchy_hits",
		"community queries answered from the precomputed hierarchy")
)

// Hierarchy is the precomputed k-level community structure of a summary
// graph: a merge forest over the connected components of the supergraph
// restricted to supernodes with trussness >= k, for every k from kmax down
// to MinK.
//
// K-truss communities nest — every k-community is contained in exactly one
// (k-1)-community — so as k descends components only merge. The forest has
// one node per (component, level-range) pair: a node is created at the
// highest k where its exact member set first exists and represents that
// community at every level down to (but excluding) its parent's creation
// level. Along any leaf-to-root path levels strictly decrease, so the
// community of a supernode at level k is the deepest ancestor of its leaf
// with nodeK >= k.
//
// With per-node member-edge and distinct-vertex counts precomputed, the
// hot read APIs answer membership and size queries in time proportional to
// the answer — no per-query bitset over the supernodes and no BFS over the
// summary graph.
type Hierarchy struct {
	kmax int32 // largest supernode trussness (MinK-1 when no supernodes)

	// Per forest node, indexed by dense node ID. Children always have
	// smaller IDs than their parent (nodes are created kmax -> MinK).
	nodeK   []int32 // level at which the node's member set first exists
	parent  []int32 // enclosing community at the next lower changing level, -1 for roots
	edges   []int64 // member edges of the community
	verts   []int64 // distinct vertices spanned by the community
	nodeMin []int32 // smallest member edge ID (canonical enumeration order)

	// snLeaf maps every supernode to the node created at its own level.
	snLeaf []int32

	// Own supernodes per node (those whose trussness equals the node's
	// level and which first appear here), CSR form.
	ownOff []int64
	ownSN  []int32

	// Child nodes per node, CSR form.
	childOff  []int64
	childList []int32

	// Communities per level: node IDs of the communities that exist at
	// level k, in levelNodes[levelOff[k-MinK]:levelOff[k-MinK+1]], sorted
	// by smallest member edge. Total size equals the sum over k of the
	// number of k-communities — exactly the answer space it serves.
	levelOff   []int64
	levelNodes []int32
}

// NumNodes returns the number of merge-forest nodes.
func (h *Hierarchy) NumNodes() int32 { return int32(len(h.nodeK)) }

// KMax returns the largest level with any community (MinK-1 when none).
func (h *Hierarchy) KMax() int32 { return h.kmax }

// HierarchyStats summarizes a built hierarchy for CLIs and dashboards.
type HierarchyStats struct {
	Nodes        int32 `json:"nodes"`         // merge-forest nodes
	Roots        int32 `json:"roots"`         // communities at level MinK
	KMax         int32 `json:"kmax"`          // deepest community level
	MaxDepth     int32 `json:"max_depth"`     // longest leaf-to-root path
	LevelEntries int64 `json:"level_entries"` // total per-level community listings
}

// Stats computes summary statistics of the hierarchy.
func (h *Hierarchy) Stats() HierarchyStats {
	st := HierarchyStats{Nodes: h.NumNodes(), KMax: h.kmax, LevelEntries: int64(len(h.levelNodes))}
	depth := make([]int32, len(h.nodeK))
	// Parents have larger IDs than children, so a descending sweep sees
	// every parent before its children.
	for id := len(h.nodeK) - 1; id >= 0; id-- {
		p := h.parent[id]
		if p < 0 {
			st.Roots++
			depth[id] = 1
		} else {
			depth[id] = depth[p] + 1
		}
		if depth[id] > st.MaxDepth {
			st.MaxDepth = depth[id]
		}
	}
	return st
}

// buildHierarchy runs the one-time precomputation: a Kruskal-style sweep of
// the superedges in descending activation level over a union-find forest,
// emitting a merge-forest node whenever a component's member set changes,
// followed by parallel aggregation of per-node edge and vertex counts.
func buildHierarchy(ctx context.Context, idx *Index, threads int, tr *obs.Trace) (*Hierarchy, error) {
	start := time.Now()
	span := tr.Start("HierarchyBuild")
	defer span.End()

	sg := idx.SG
	s := int(sg.NumSupernodes())
	h := &Hierarchy{kmax: sg.MaxK()}
	if h.kmax < core.MinK {
		// No supernodes at all: an empty forest answers every query with
		// "no communities".
		h.levelOff = []int64{0}
		cHierBuildNS.Add(time.Since(start).Nanoseconds())
		return h, ctxErrOrNil(ctx)
	}
	levels := int(h.kmax) - core.MinK + 1

	// Bucket supernodes by trussness and superedges by activation level
	// min(K[a], K[b]) — the level at which both endpoints exist. Counting
	// sorts with the counting and fill passes on the ctx schedulers.
	snCnt := make([]int64, levels)
	seCnt := make([]int64, levels)
	seLevel := func(sn int32, nb int32) int {
		lvl := sg.K[nb]
		if sg.K[sn] < lvl {
			lvl = sg.K[sn]
		}
		return int(lvl) - core.MinK
	}
	if err := concur.ForRange(ctx, nil, "", s, threads, func(lo, hi int) {
		for sn := int32(lo); sn < int32(hi); sn++ {
			atomic.AddInt64(&snCnt[sg.K[sn]-core.MinK], 1)
			for _, nb := range sg.SupernodeNeighbors(sn) {
				if nb > sn { // count each superedge once
					atomic.AddInt64(&seCnt[seLevel(sn, nb)], 1)
				}
			}
		}
	}); err != nil {
		return nil, err
	}
	snOff := prefixSum(snCnt)
	seOff := prefixSum(seCnt)
	snByK := make([]int32, snOff[levels])
	seA := make([]int32, seOff[levels])
	seB := make([]int32, seOff[levels])
	snCur := make([]int64, levels)
	seCur := make([]int64, levels)
	if err := concur.ForRange(ctx, nil, "", s, threads, func(lo, hi int) {
		for sn := int32(lo); sn < int32(hi); sn++ {
			lvlSN := int(sg.K[sn]) - core.MinK
			snByK[snOff[lvlSN]+atomic.AddInt64(&snCur[lvlSN], 1)-1] = sn
			for _, nb := range sg.SupernodeNeighbors(sn) {
				if nb > sn {
					lvl := seLevel(sn, nb)
					slot := seOff[lvl] + atomic.AddInt64(&seCur[lvl], 1) - 1
					seA[slot] = sn
					seB[slot] = nb
				}
			}
		}
	}); err != nil {
		return nil, err
	}

	// The merge sweep itself is sequential — levels depend on each other
	// and the total union work is near-linear in the superedge count — but
	// everything around it (the bucketing above, the count aggregation
	// below) runs parallel.
	uf := ds.NewUnionFind(s)
	nodeAtRoot := make([]int32, s) // component's current node, valid at roots
	for i := range nodeAtRoot {
		nodeAtRoot[i] = -1
	}
	h.snLeaf = make([]int32, s)
	snStamp := ds.NewStamps(s)   // touched-this-level, per supernode
	rootStamp := ds.NewStamps(s) // grouped-this-level, per union-find root
	nodeStamp := ds.NewStamps(0) // child-dedupe, per forest node (grown as nodes appear)
	rootSlot := make([]int32, s) // group index per root, guarded by rootStamp
	var touched []int32
	var prevNodes []int32 // pre-union node of touched[i]'s component, -1 = newly active
	type group struct {
		root     int32
		newSNs   int32
		children []int32
	}
	var groups []group

	for k := h.kmax; k >= core.MinK; k-- {
		lvl := int(k) - core.MinK
		touched = touched[:0]
		prevNodes = prevNodes[:0]
		groups = groups[:0]
		snStamp.NextEpoch()
		rootStamp.NextEpoch()
		nodeStamp.NextEpoch()
		mark := func(sn int32) {
			if snStamp.Visit(sn) {
				touched = append(touched, sn)
			}
		}
		for _, sn := range snByK[snOff[lvl]:snOff[lvl+1]] {
			mark(sn)
		}
		for i := seOff[lvl]; i < seOff[lvl+1]; i++ {
			mark(seA[i])
			mark(seB[i])
		}
		// Phase 0: record each touched supernode's pre-union component
		// node. Newly activated supernodes (trussness == k) are union-find
		// singletons never yet unioned, so their root is themselves and
		// nodeAtRoot is still -1 there.
		for _, t := range touched {
			prevNodes = append(prevNodes, nodeAtRoot[uf.Find(t)])
		}
		// Phase 1: apply this level's unions.
		for i := seOff[lvl]; i < seOff[lvl+1]; i++ {
			uf.Union(seA[i], seB[i])
		}
		// Phase 2: group the touched supernodes by post-union root,
		// collecting each group's distinct pre-union nodes (the children of
		// a prospective new node) and its count of newly activated members.
		// A pre-union component belongs to exactly one post-union group, so
		// a per-level node stamp dedupes children correctly.
		for i, t := range touched {
			r := uf.Find(t)
			if rootStamp.Visit(r) {
				rootSlot[r] = int32(len(groups))
				groups = append(groups, group{root: r})
			}
			g := &groups[rootSlot[r]]
			prev := prevNodes[i]
			if prev < 0 {
				g.newSNs++
			} else if nodeStamp.Visit(prev) {
				g.children = append(g.children, prev)
			}
		}
		// Phase 3: a component's member set changed at this level iff it
		// gained a newly activated supernode or merged two or more previous
		// components; only then does a new forest node exist.
		for gi := range groups {
			g := &groups[gi]
			if g.newSNs == 0 && len(g.children) < 2 {
				// Same member set as at level k+1; re-point the (possibly
				// moved) root at the existing node.
				if len(g.children) == 1 {
					nodeAtRoot[g.root] = g.children[0]
				}
				continue
			}
			id := int32(len(h.nodeK))
			h.nodeK = append(h.nodeK, k)
			h.parent = append(h.parent, -1)
			nodeStamp.Grow(len(h.nodeK))
			for _, c := range g.children {
				h.parent[c] = id
			}
			nodeAtRoot[g.root] = id
		}
		// Newly activated supernodes point at their component's node —
		// which always exists, since a group with a new member is always
		// "changed".
		for i, t := range touched {
			if prevNodes[i] < 0 {
				h.snLeaf[t] = nodeAtRoot[uf.Find(t)]
			}
		}
		if err := ctxErrOrNil(ctx); err != nil {
			return nil, err
		}
	}

	n := len(h.nodeK)
	// Own-supernode CSR from snLeaf and children CSR from parent — two
	// small counting sorts.
	h.ownOff = make([]int64, n+1)
	for _, leaf := range h.snLeaf {
		h.ownOff[leaf+1]++
	}
	for i := 0; i < n; i++ {
		h.ownOff[i+1] += h.ownOff[i]
	}
	h.ownSN = make([]int32, s)
	ownCur := make([]int64, n)
	copy(ownCur, h.ownOff[:n])
	for sn, leaf := range h.snLeaf {
		h.ownSN[ownCur[leaf]] = int32(sn)
		ownCur[leaf]++
	}
	h.childOff = make([]int64, n+1)
	for _, p := range h.parent {
		if p >= 0 {
			h.childOff[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		h.childOff[i+1] += h.childOff[i]
	}
	h.childList = make([]int32, h.childOff[n])
	childCur := make([]int64, n)
	copy(childCur, h.childOff[:n])
	for c, p := range h.parent {
		if p >= 0 {
			h.childList[childCur[p]] = int32(c)
			childCur[p]++
		}
	}

	// Per-node member-edge counts and canonical minimum edge IDs: seed from
	// own supernodes in parallel, then aggregate child into parent. A child
	// always has a smaller ID than its parent, so one ascending pass sees
	// every child finalized before its parent reads it.
	h.edges = make([]int64, n)
	h.nodeMin = make([]int32, n)
	if err := concur.ForRange(ctx, nil, "", n, threads, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			h.nodeMin[id] = int32(len(sg.EdgeToSN)) // sentinel above any edge ID
			for _, sn := range h.ownSN[h.ownOff[id]:h.ownOff[id+1]] {
				h.edges[id] += sg.SupernodeEdgeCount(sn)
				for _, e := range sg.SupernodeEdges(sn) {
					if e < h.nodeMin[id] {
						h.nodeMin[id] = e
					}
				}
			}
		}
	}); err != nil {
		return nil, err
	}
	for id := 0; id < n; id++ {
		if p := h.parent[id]; p >= 0 {
			h.edges[p] += h.edges[id]
			if h.nodeMin[id] < h.nodeMin[p] {
				h.nodeMin[p] = h.nodeMin[id]
			}
		}
	}

	// Per-node distinct-vertex counts: every vertex walks the leaf-to-root
	// paths of its incident supernodes, contributing one to each node seen
	// for the first time. Paths that merge stay merged, so each walk stops
	// at the first already-visited node. Parallel over vertices with one
	// visited-stamp array per worker.
	h.verts = make([]int64, n)
	nv := int(idx.G.NumVertices())
	vthr := threads
	if vthr <= 0 {
		vthr = concur.MaxThreads()
	}
	if vthr > nv {
		vthr = nv
	}
	if vthr < 1 {
		vthr = 1
	}
	if err := concur.ForThreads(ctx, nil, "", vthr, func(tid int) {
		lo, hi := tid*nv/vthr, (tid+1)*nv/vthr
		seen := ds.NewStamps(n)
		for v := lo; v < hi; v++ {
			if v%4096 == 0 && concur.Canceled(ctx) {
				return
			}
			seen.NextEpoch()
			for _, sn := range idx.SupernodesOf(int32(v)) {
				for node := h.snLeaf[sn]; node >= 0 && seen.Visit(node); node = h.parent[node] {
					atomic.AddInt64(&h.verts[node], 1)
				}
			}
		}
	}); err != nil {
		return nil, err
	}

	// Level index: node id appears at every level in (parentK, nodeK],
	// clipped below at MinK; within a level, nodes are listed by smallest
	// member edge so enumeration order is canonical without per-query
	// sorting.
	h.levelOff = make([]int64, levels+1)
	for id := int32(0); id < int32(n); id++ {
		lo, hi := h.spanOf(id)
		for k := lo; k <= hi; k++ {
			h.levelOff[k-core.MinK+1]++
		}
	}
	for i := 0; i < levels; i++ {
		h.levelOff[i+1] += h.levelOff[i]
	}
	h.levelNodes = make([]int32, h.levelOff[levels])
	lvlCur := make([]int64, levels)
	copy(lvlCur, h.levelOff[:levels])
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return h.nodeMin[order[a]] < h.nodeMin[order[b]] })
	for _, id := range order {
		lo, hi := h.spanOf(id)
		for k := lo; k <= hi; k++ {
			h.levelNodes[lvlCur[k-core.MinK]] = id
			lvlCur[k-core.MinK]++
		}
	}

	cHierBuildNodes.Add(int64(n))
	cHierBuildLevels.Add(int64(levels))
	cHierBuildNS.Add(time.Since(start).Nanoseconds())
	return h, ctxErrOrNil(ctx)
}

// spanOf returns the inclusive level range [lo, hi] at which a node is the
// current community of its member set.
func (h *Hierarchy) spanOf(id int32) (int32, int32) {
	lo := int32(core.MinK)
	if p := h.parent[id]; p >= 0 {
		lo = h.nodeK[p] + 1
	}
	return lo, h.nodeK[id]
}

// nodeAt returns the community node of supernode sn at level k. The caller
// must ensure K[sn] >= k. Walks the leaf-to-root path, along which levels
// strictly decrease, to the deepest ancestor still at level >= k.
func (h *Hierarchy) nodeAt(sn, k int32) int32 {
	node := h.snLeaf[sn]
	for {
		p := h.parent[node]
		if p < 0 || h.nodeK[p] < k {
			return node
		}
		node = p
	}
}

// appendCommunityEdges materializes the member edge IDs of a community node
// into out by walking its subtree — own supernodes contribute their member
// lists, children recurse. Cost is proportional to the edges emitted.
func (h *Hierarchy) appendCommunityEdges(sg *core.SummaryGraph, node int32, out []int32) []int32 {
	stack := make([]int32, 1, 8)
	stack[0] = node
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, sn := range h.ownSN[h.ownOff[id]:h.ownOff[id+1]] {
			out = append(out, sg.SupernodeEdges(sn)...)
		}
		stack = append(stack, h.childList[h.childOff[id]:h.childOff[id+1]]...)
	}
	return out
}

// prefixSum returns the exclusive prefix sums of counts with a trailing
// total, i.e. a CSR offset array.
func prefixSum(counts []int64) []int64 {
	off := make([]int64, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}

// ctxErrOrNil tolerates the nil context used by the lazy build path.
func ctxErrOrNil(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
