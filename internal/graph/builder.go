package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// FromEdgeList builds a Graph from an arbitrary edge list. The input may
// contain self-loops, duplicates, and either endpoint order; the builder
// canonicalizes, deduplicates, and drops self-loops, producing a simple
// undirected graph. Vertex IDs must be non-negative; the vertex set is
// [0, maxID]. numVertices <= 0 infers the vertex count from the edges.
func FromEdgeList(input []Edge, numVertices int32) (*Graph, error) {
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
	// IDs are non-negative, so the packed words order as (U, V) pairs.
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Compare(uint64(a.U)<<32|uint64(a.V), uint64(b.U)<<32|uint64(b.V))
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

	// Fill adjacency with a cursor per vertex. Edges are sorted by (U, V),
	// so a vertex x first receives its backward neighbors U < x (edges
	// (U, x), in ascending U) and then its forward neighbors V > x (the
	// block of edges (x, V), in ascending V): every list comes out sorted.
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
