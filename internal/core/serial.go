package core

import (
	"context"
	"time"

	"equitruss/internal/concur"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

// buildSerialCtx builds VariantSerial, a faithful port of Algorithm 1 (the
// original sequential EquiTruss index construction of Akbas & Zhao). Edges
// are grouped by trussness, and for k = 3..kmax each unprocessed edge seeds
// a supernode grown by a breadth-first traversal over k-triangle
// connectivity. Edges of higher trussness met along the way record the
// supernode ID in their pending list; when they are later processed at
// their own trussness level, each recorded ID becomes a superedge.
//
// It emits pipeline-level spans only (the serial builder has no worker
// threads); SpNode and SpEdge are interleaved in Algorithm 1, so they share
// one span and the SpNode timing bucket. The BFS loop polls ctx every few
// thousand dequeued edges and returns ctx.Err() (and no index) once it
// fires. A nil context is never canceled.
func buildSerialCtx(ctx context.Context, g *graph.Graph, tau []int32, tr *obs.Trace) (*SummaryGraph, Timings, error) {
	var tm Timings
	tm.Threads = 1
	tm.Runs = 1
	m := int32(g.NumEdges())

	// Init kernel: group edge IDs into Φ_k sets (ln. 1–5).
	span := tr.Start("Init")
	start := time.Now()
	kmax := int32(MinK - 1)
	for _, t := range tau {
		if t > kmax {
			kmax = t
		}
	}
	phi := make([][]int32, kmax+1)
	for e := int32(0); e < m; e++ {
		if tau[e] >= MinK {
			phi[tau[e]] = append(phi[tau[e]], e)
		}
	}
	tm.Init = time.Since(start)
	span.End()

	// SpNode + SpEdge interleaved exactly as Algorithm 1 does: BFS grows a
	// supernode and superedges materialize when a pending list is drained.
	span = tr.Start("SpNode")
	start = time.Now()
	processed := make([]bool, m)
	snOf := make([]int32, m)
	for i := range snOf {
		snOf[i] = NoSupernode
	}
	lists := make([][]int32, m) // e.list: pending supernode IDs
	var snK []int32
	var snMembers [][]int32
	type sePair struct{ a, b int32 }
	seSet := make(map[sePair]struct{})
	var queue []int32
	pops := 0

	for k := int32(MinK); k <= kmax; k++ {
		for _, seed := range phi[k] {
			if processed[seed] {
				continue
			}
			if pops++; pops&4095 == 0 && concur.Canceled(ctx) {
				return nil, tm, ctx.Err()
			}
			// ln. 9–13: open a new supernode ν and BFS from the seed.
			snID := int32(len(snK))
			snK = append(snK, k)
			snMembers = append(snMembers, nil)
			processed[seed] = true
			queue = append(queue[:0], seed)
			for len(queue) > 0 {
				if pops++; pops&4095 == 0 && concur.Canceled(ctx) {
					return nil, tm, ctx.Err()
				}
				e := queue[0]
				queue = queue[1:]
				snMembers[snID] = append(snMembers[snID], e)
				snOf[e] = snID
				// ln. 17–19: drain e's pending list into superedges.
				for _, id := range lists[e] {
					p := sePair{id, snID}
					seSet[p] = struct{}{}
				}
				lists[e] = nil
				// ln. 20–23: expand through triangles fully inside the
				// k-truss (τ of both partner edges >= k).
				g.ForEachTriangleOf(e, func(w, e1, e2 int32) bool {
					if tau[e1] < k || tau[e2] < k {
						return true
					}
					queue = processEdgeSerial(e1, k, snID, tau, processed, lists, queue)
					queue = processEdgeSerial(e2, k, snID, tau, processed, lists, queue)
					return true
				})
			}
		}
	}
	tm.SpNode = time.Since(start)
	span.End()

	// SmGraph kernel: assemble the CSR summary graph.
	span = tr.Start("SmGraph")
	start = time.Now()
	pairs := make([][2]int32, 0, len(seSet))
	for p := range seSet {
		pairs = append(pairs, [2]int32{p.a, p.b})
	}
	sg := assemble(g, tau, snK, snMembers, snOf, pairs)
	tm.SmGraph = time.Since(start)
	span.End()
	return sg, tm, nil
}

// processEdgeSerial is Algorithm 1's ProcessEdge (ln. 25–32): same-k edges
// join the BFS; higher-k edges record the supernode ID for later superedge
// creation.
func processEdgeSerial(e, k, snID int32, tau []int32, processed []bool, lists [][]int32, queue []int32) []int32 {
	if tau[e] == k {
		if !processed[e] {
			processed[e] = true
			queue = append(queue, e)
		}
		return queue
	}
	// τ(e) > k here: k-truss gate upstream guarantees τ >= k.
	for _, id := range lists[e] {
		if id == snID {
			return queue
		}
	}
	lists[e] = append(lists[e], snID)
	return queue
}

// assemble builds the final SummaryGraph from supernode membership and a
// deduplicated superedge pair list (pairs reference dense supernode IDs).
func assemble(g *graph.Graph, tau []int32, snK []int32, snMembers [][]int32, snOf []int32, pairs [][2]int32) *SummaryGraph {
	s := int32(len(snK))
	sg := &SummaryGraph{
		Tau:         tau,
		EdgeToSN:    snOf,
		K:           snK,
		EdgeOffsets: make([]int64, s+1),
		AdjOffsets:  make([]int64, s+1),
	}
	var total int64
	for i := int32(0); i < s; i++ {
		sg.EdgeOffsets[i] = total
		total += int64(len(snMembers[i]))
	}
	sg.EdgeOffsets[s] = total
	sg.EdgeList = make([]int32, total)
	for i := int32(0); i < s; i++ {
		copy(sg.EdgeList[sg.EdgeOffsets[i]:], snMembers[i])
	}
	deg := make([]int64, s)
	for _, p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	var run int64
	for i := int32(0); i < s; i++ {
		sg.AdjOffsets[i] = run
		run += deg[i]
	}
	sg.AdjOffsets[s] = run
	sg.Adj = make([]int32, run)
	cursor := make([]int64, s)
	copy(cursor, sg.AdjOffsets[:s])
	for _, p := range pairs {
		sg.Adj[cursor[p[0]]] = p[1]
		cursor[p[0]]++
		sg.Adj[cursor[p[1]]] = p[0]
		cursor[p[1]]++
	}
	return sg
}
