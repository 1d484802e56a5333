package graph

import (
	"fmt"
	"sort"

	"equitruss/internal/concur"
)

// FromEdgeList builds a Graph from an arbitrary edge list. The input may
// contain self-loops, duplicates, and either endpoint order; the builder
// canonicalizes, deduplicates, and drops self-loops, producing a simple
// undirected graph. Vertex IDs must be non-negative; the vertex set is
// [0, maxID]. numVertices <= 0 infers the vertex count from the edges.
func FromEdgeList(edges []Edge, numVertices int32) (*Graph, error) {
	return buildCSR(edges, numVertices, concur.MaxThreads())
}

// FromEdgeListSerial is FromEdgeList restricted to a single thread; used by
// tests that need deterministic single-threaded construction.
func FromEdgeListSerial(edges []Edge, numVertices int32) (*Graph, error) {
	return buildCSR(edges, numVertices, 1)
}

func buildCSR(input []Edge, numVertices int32, threads int) (*Graph, error) {
	// Canonicalize into a private copy, dropping self-loops.
	edges := make([]Edge, 0, len(input))
	var maxID int32 = -1
	for _, e := range input {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: negative vertex id in edge (%d, %d)", e.U, e.V)
		}
		if e.U == e.V {
			continue // self-loop
		}
		c := e.Canonical()
		if c.V > maxID {
			maxID = c.V
		}
		edges = append(edges, c)
	}
	n := maxID + 1
	if numVertices > 0 {
		if numVertices < n {
			return nil, fmt.Errorf("graph: numVertices=%d but edge references vertex %d", numVertices, maxID)
		}
		n = numVertices
	}
	if n < 0 {
		n = 0
	}

	// Sort and deduplicate so edge IDs are canonical: sorted by (U, V).
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	edges = dedupeSorted(edges)
	m := int64(len(edges))

	g := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]int32, 2*m),
		adjEID:  make([]int32, 2*m),
		edges:   edges,
	}
	if n == 0 {
		return g, nil
	}

	// Degree counting (each undirected edge contributes to both endpoints).
	counts := make([]int64, n)
	for _, e := range edges {
		counts[e.U]++
		counts[e.V]++
	}
	copy(g.offsets[1:], counts)
	var running int64
	for v := int32(0); v < n; v++ {
		running += g.offsets[v+1]
		g.offsets[v+1] = running
	}

	// Fill adjacency. Because edges are sorted by (U, V), slots for each
	// vertex's "forward" neighbors (V side when vertex is U) land in
	// ascending order; the "backward" side needs a per-vertex sort. Use
	// cursor fill then sort each vertex's slice with its aligned EIDs.
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for eid, e := range edges {
		g.adj[cursor[e.U]] = e.V
		g.adjEID[cursor[e.U]] = int32(eid)
		cursor[e.U]++
		g.adj[cursor[e.V]] = e.U
		g.adjEID[cursor[e.V]] = int32(eid)
		cursor[e.V]++
	}
	concur.For(nil, nil, "", int(n), threads, func(i int) {
		v := int32(i)
		lo, hi := g.offsets[v], g.offsets[v+1]
		sortAdjWithEIDs(g.adj[lo:hi], g.adjEID[lo:hi])
	})
	return g, nil
}

// dedupeSorted removes duplicate edges from a canonically sorted slice.
func dedupeSorted(edges []Edge) []Edge {
	if len(edges) == 0 {
		return edges
	}
	out := edges[:1]
	for _, e := range edges[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

// sortAdjWithEIDs sorts a neighbor slice ascending, permuting the aligned
// edge-ID slice identically. Insertion sort is used below a small threshold
// since typical per-vertex lists are short.
func sortAdjWithEIDs(adj, eids []int32) {
	if len(adj) < 24 {
		for i := 1; i < len(adj); i++ {
			a, e := adj[i], eids[i]
			j := i - 1
			for j >= 0 && adj[j] > a {
				adj[j+1], eids[j+1] = adj[j], eids[j]
				j--
			}
			adj[j+1], eids[j+1] = a, e
		}
		return
	}
	idx := make([]int32, len(adj))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(x, y int) bool { return adj[idx[x]] < adj[idx[y]] })
	tmpA := make([]int32, len(adj))
	tmpE := make([]int32, len(adj))
	for i, p := range idx {
		tmpA[i], tmpE[i] = adj[p], eids[p]
	}
	copy(adj, tmpA)
	copy(eids, tmpE)
}

// InducedByEdges returns the subgraph of g containing exactly the edges
// whose IDs satisfy keep, preserving vertex IDs. Used to materialize
// community subgraphs and k-truss subgraphs.
func (g *Graph) InducedByEdges(keep func(eid int32) bool) (*Graph, error) {
	var sub []Edge
	for eid := int32(0); eid < int32(g.NumEdges()); eid++ {
		if keep(eid) {
			sub = append(sub, g.edges[eid])
		}
	}
	return FromEdgeList(sub, g.NumVertices())
}
