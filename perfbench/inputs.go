package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"equitruss/internal/community"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/wal"
)

// makeGraph generates the workload's input graph from the seed: R-MAT with
// the family's skew parameters, the family seed perturbed by the run seed.
func makeGraph(w workload, seed uint64) (*graph.Graph, error) {
	spec, err := gen.FindDataset(w.Family)
	if err != nil {
		return nil, err
	}
	s := spec.Seed ^ (seed * 0x9E3779B97F4A7C15)
	if spec.Kind == "planted" {
		return gen.PlantedPartition(w.Comms, spec.CommSize, spec.PIntra, spec.InterDeg, s), nil
	}
	return gen.RMAT(w.Scale, w.EdgeFactor, spec.A, spec.B, spec.C, s), nil
}

// makeLiveGraph generates the graph the churn phase updates: a
// planted-partition graph of the dblp family with w.LiveComms communities.
// Dynamic trussness maintenance on skewed R-MAT graphs walks a giant
// low-k triangle component per operation (seconds per 6-op batch at 150k
// edges), so live updates run on community-structured graphs.
func makeLiveGraph(w workload, seed uint64) (*graph.Graph, error) {
	spec, err := gen.FindDataset(liveFamily)
	if err != nil {
		return nil, err
	}
	return gen.PlantedPartition(w.LiveComms, spec.CommSize, spec.PIntra, spec.InterDeg, spec.Seed^(seed*0xC2B2AE3D27D4EB4F)), nil
}

// makeUpdates generates n update batches over the existing vertices of g.
// Inserts close a triangle: pick a random edge (u,w), then a random
// neighbour x of w, and add (u,x) — edges are drawn uniformly, so hubs and
// dense regions get their share, and trussness really moves. Deletes drop
// a random base edge. Repeats are no-ops on the server, so no op can fail.
func makeUpdates(g *graph.Graph, n int, seed uint64) []wal.Batch {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	edges := g.Edges()
	out := make([]wal.Batch, 0, n)
	for len(out) < n {
		b := make(wal.Batch, 0, batchInserts+batchDeletes)
		for len(b) < batchInserts {
			e := edges[rng.Intn(len(edges))]
			u, mid := e.U, e.V
			if rng.Intn(2) == 0 {
				u, mid = mid, u
			}
			nb := g.Neighbors(mid)
			x := nb[rng.Intn(len(nb))]
			if x == u {
				continue
			}
			b = append(b, wal.Op{U: u, V: x})
		}
		for i := 0; i < batchDeletes; i++ {
			e := edges[rng.Intn(len(edges))]
			b = append(b, wal.Op{Del: true, U: e.U, V: e.V})
		}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b)
	}
	return out
}

// Request kinds of the query mix.
const (
	reqCommunity      = iota // GET /community, counts only
	reqCommunityVerts        // GET /community with vertices=1
	reqMembership            // GET /membership
	reqBatch                 // POST /batch
)

// requestMix is the share of each request kind, in kind order, and the
// batch size; recorded in the artifact.
var requestMix = map[string]any{
	"community": 0.70, "community_vertices": 0.10, "membership": 0.10, "batch": 0.10,
	"batch_queries": batchQueries, "zipf_s": zipfS,
	"vertices_only_when_total_size_at_most": maxVertsAnswer,
}

const (
	batchQueries   = 16
	zipfS          = 1.1
	maxVertsAnswer = 256
)

// key is one (vertex, k) lookup.
type key struct{ V, K int32 }

// request is one pre-rendered request of the query stream.
type request struct {
	Kind int
	Key  key   // community and membership requests (K unused for membership)
	Keys []key // batch requests
	Path string
	Body []byte // batch requests only
}

// makeRequests generates n requests. Vertex popularity is Zipf over the
// vertices that lie in some triangle, ranked by degree, k is
// uniform over the levels the vertex has communities at, so the distinct
// key space is the sum of those level counts — several times the server's
// default cache on every workload graph.
func makeRequests(ref *community.Index, n int, seed uint64) ([]request, int, error) {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x0a11ce))
	var cand []int32
	var maxK []int32
	space := 0
	for v := int32(0); v < ref.G.NumVertices(); v++ {
		if mk := ref.MaxK(v); mk >= 3 {
			cand = append(cand, v)
			maxK = append(maxK, mk)
			space += int(mk - 2)
		}
	}
	if len(cand) < 2 {
		return nil, 0, fmt.Errorf("graph has %d vertices in triangles; too few to query", len(cand))
	}
	// Popularity follows degree, as in social graphs where the most-asked
	// vertices are the hubs; a seeded shuffle first breaks degree ties.
	rng.Shuffle(len(cand), func(i, j int) {
		cand[i], cand[j] = cand[j], cand[i]
		maxK[i], maxK[j] = maxK[j], maxK[i]
	})
	order := make([]int, len(cand))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ref.G.Degree(cand[order[a]]) > ref.G.Degree(cand[order[b]]) })
	sortedCand, sortedMaxK := make([]int32, len(cand)), make([]int32, len(cand))
	for i, j := range order {
		sortedCand[i], sortedMaxK[i] = cand[j], maxK[j]
	}
	cand, maxK = sortedCand, sortedMaxK
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(cand)-1))
	draw := func() key {
		i := zipf.Uint64()
		return key{V: cand[i], K: 3 + int32(rng.Intn(int(maxK[i]-2)))}
	}
	out := make([]request, n)
	for i := range out {
		p := rng.Float64()
		switch {
		case p < 0.70:
			out[i] = communityRequest(draw(), false)
		case p < 0.80:
			k := draw()
			out[i] = communityRequest(k, totalSize(ref, k) <= maxVertsAnswer)
		case p < 0.90:
			k := draw()
			out[i] = request{Kind: reqMembership, Key: k, Path: "/membership?v=" + strconv.Itoa(int(k.V))}
		default:
			keys := make([]key, batchQueries)
			body := []byte(`{"queries":[`)
			for j := range keys {
				keys[j] = draw()
				if j > 0 {
					body = append(body, ',')
				}
				body = fmt.Appendf(body, `{"v":%d,"k":%d}`, keys[j].V, keys[j].K)
			}
			body = append(body, "]}"...)
			out[i] = request{Kind: reqBatch, Keys: keys, Path: "/batch", Body: body}
		}
	}
	return out, space, nil
}

func communityRequest(k key, withVertices bool) request {
	q := url.Values{}
	q.Set("v", strconv.Itoa(int(k.V)))
	q.Set("k", strconv.Itoa(int(k.K)))
	kind := reqCommunity
	if withVertices {
		q.Set("vertices", "1")
		kind = reqCommunityVerts
	}
	return request{Kind: kind, Key: k, Path: "/community?" + q.Encode()}
}

// firstKey is the first (vertex, k) key of a stream; restarts and
// recoveries ask it as their first question.
func firstKey(stream []request) key {
	if stream[0].Kind == reqBatch {
		return stream[0].Keys[0]
	}
	return stream[0].Key
}

// totalSize is the summed vertex count of k's communities.
func totalSize(ref *community.Index, k key) int64 {
	var n int64
	for _, r := range ref.CommunityRefs(k.V, k.K) {
		n += r.NumVertices()
	}
	return n
}
