package gen

import (
	"equitruss/internal/concur"
	"equitruss/internal/graph"
)

// RMAT generates a recursive-matrix (Kronecker) graph with 2^scale vertices
// and approximately edgeFactor * 2^scale undirected edges before
// deduplication. The (a, b, c, d) partition probabilities control skew; the
// classic Graph500 setting is (0.57, 0.19, 0.19, 0.05). Self-loops and
// duplicates are removed by the CSR builder, so the final edge count is
// somewhat below the nominal target (as with the real generator).
func RMAT(scale, edgeFactor int, a, b, c float64, seed uint64) *graph.Graph {
	n := int32(1) << scale
	target := int64(edgeFactor) * int64(n)
	edges := make([]graph.Edge, target)
	threads := concur.MaxThreads()
	base := newRNG(seed)
	streams := make([]*rng, threads)
	for t := range streams {
		streams[t] = base.split()
	}
	concur.ForThreads(nil, nil, "", threads, func(tid int) {
		r := streams[tid]
		lo := int64(tid) * target / int64(threads)
		hi := int64(tid+1) * target / int64(threads)
		for i := lo; i < hi; i++ {
			var u, v int32
			for bit := scale - 1; bit >= 0; bit-- {
				p := r.float64v()
				switch {
				case p < a:
					// top-left: no bits set
				case p < a+b:
					v |= 1 << bit
				case p < a+b+c:
					u |= 1 << bit
				default:
					u |= 1 << bit
					v |= 1 << bit
				}
			}
			edges[i] = graph.Edge{U: u, V: v}
		}
	})
	g, err := graph.FromEdgeList(edges, n)
	if err != nil {
		panic("gen: rmat builder failed: " + err.Error())
	}
	return g
}

// ErdosRenyi generates a G(n, m) uniform random graph: m undirected edges
// sampled uniformly (with duplicates/self-loops removed by the builder).
func ErdosRenyi(n int32, m int64, seed uint64) *graph.Graph {
	edges := make([]graph.Edge, m)
	r := newRNG(seed)
	for i := int64(0); i < m; i++ {
		edges[i] = graph.Edge{U: int32(r.intn(int64(n))), V: int32(r.intn(int64(n)))}
	}
	g, err := graph.FromEdgeList(edges, n)
	if err != nil {
		panic("gen: erdos-renyi builder failed: " + err.Error())
	}
	return g
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches to k existing endpoints sampled proportional to degree (via the
// repeated-endpoint trick: sampling a uniform position in the running edge
// list is degree-proportional).
func BarabasiAlbert(n int32, k int, seed uint64) *graph.Graph {
	if n < int32(k)+1 {
		n = int32(k) + 1
	}
	r := newRNG(seed)
	endpoints := make([]int32, 0, int(n)*k*2)
	edges := make([]graph.Edge, 0, int(n)*k)
	// Seed clique of k+1 vertices.
	for u := int32(0); u <= int32(k); u++ {
		for v := u + 1; v <= int32(k); v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
			endpoints = append(endpoints, u, v)
		}
	}
	for v := int32(k) + 1; v < n; v++ {
		for j := 0; j < k; j++ {
			u := endpoints[r.intn(int64(len(endpoints)))]
			edges = append(edges, graph.Edge{U: u, V: v})
			endpoints = append(endpoints, u, v)
		}
	}
	g, err := graph.FromEdgeList(edges, n)
	if err != nil {
		panic("gen: barabasi-albert builder failed: " + err.Error())
	}
	return g
}

// PlantedPartition generates a community graph: numComm communities of
// commSize vertices each; within a community every pair is connected with
// probability pIntra, and each vertex receives on average interDeg random
// cross-community edges. High pIntra produces the dense triangle-rich
// modules that give social networks their high-trussness cores.
func PlantedPartition(numComm, commSize int32, pIntra float64, interDeg float64, seed uint64) *graph.Graph {
	n := numComm * commSize
	r := newRNG(seed)
	var edges []graph.Edge
	for c := int32(0); c < numComm; c++ {
		base := c * commSize
		for i := int32(0); i < commSize; i++ {
			for j := i + 1; j < commSize; j++ {
				if r.float64v() < pIntra {
					edges = append(edges, graph.Edge{U: base + i, V: base + j})
				}
			}
		}
	}
	interEdges := int64(float64(n) * interDeg / 2)
	for i := int64(0); i < interEdges; i++ {
		u := int32(r.intn(int64(n)))
		v := int32(r.intn(int64(n)))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g, err := graph.FromEdgeList(edges, n)
	if err != nil {
		panic("gen: planted-partition builder failed: " + err.Error())
	}
	return g
}

// Clique returns the complete graph K_n.
func Clique(n int32) *graph.Graph {
	var edges []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdgeList(edges, n)
	if err != nil {
		panic("gen: clique builder failed: " + err.Error())
	}
	return g
}

// Path returns the path graph P_n (n vertices, n-1 edges, no triangles).
func Path(n int32) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for u := int32(0); u+1 < n; u++ {
		edges = append(edges, graph.Edge{U: u, V: u + 1})
	}
	g, err := graph.FromEdgeList(edges, n)
	if err != nil {
		panic("gen: path builder failed: " + err.Error())
	}
	return g
}

// Cycle returns the cycle graph C_n.
func Cycle(n int32) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for u := int32(0); u < n; u++ {
		edges = append(edges, graph.Edge{U: u, V: (u + 1) % n})
	}
	g, err := graph.FromEdgeList(edges, n)
	if err != nil {
		panic("gen: cycle builder failed: " + err.Error())
	}
	return g
}
