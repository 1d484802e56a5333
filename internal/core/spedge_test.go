package core

import (
	"context"
	"slices"
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// bruteSuperedges is Algorithm 3 as written: every edge scans all of its
// triangles and links its supernode down to that of each minimum-trussness
// partner when it sits strictly above the triangle's minimum.
func bruteSuperedges(g *graph.Graph, tau, pi []int32) []uint64 {
	var out []uint64
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		k := tau[e]
		g.ForEachTriangleOf(e, func(_, e1, e2 int32) bool {
			lowest := min(k, tau[e1], tau[e2])
			if k > lowest && tau[e1] == lowest {
				out = append(out, packPair(pi[e1], pi[e]))
			}
			if k > lowest && tau[e2] == lowest {
				out = append(out, packPair(pi[e2], pi[e]))
			}
			return true
		})
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestSpEdgeFilteredMatchesBrute: the triangle-once SpEdge behind its
// duplicate filter, merged by SmGraph, yields exactly the brute-force
// all-triangles superedge set, at every thread count.
func TestSpEdgeFilteredMatchesBrute(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":    gen.RMAT(11, 8, 0.57, 0.19, 0.19, 3),
		"planted": gen.PlantedPartition(20, 12, 0.6, 2, 4),
		"ba":      gen.BarabasiAlbert(400, 5, 5),
		"figure3": gen.PaperFigure3(),
		"bridged": gen.BridgedCliques(6),
	}
	ctx := context.Background()
	for name, g := range graphs {
		sup, _ := triangle.SupportsKernelCtx(nil, g, triangle.KernelMerge, 1, nil)
		tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
		og, err := graph.Orient(ctx, g, 2, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		pi, err := spNodeAfforest(ctx, og, tau, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteSuperedges(g, tau, pi)
		for _, threads := range []int{1, 2, 4} {
			spEdges, err := spEdgeFlat(ctx, og, tau, pi, threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := smGraphMerge(ctx, spEdges, threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%d: %d superedges, brute force has %d", name, threads, len(got), len(want))
			}
		}
	}
}

// TestDupFilterPassesFirstSighting: a fresh filter reports every real pair
// unseen the first time — including the all-zero word, so no pair collides
// with the empty-slot sentinel — and drops an immediate repeat.
func TestDupFilterPassesFirstSighting(t *testing.T) {
	var f dupFilter
	f.clear()
	pairs := []uint64{0, packPair(0, 1), packPair(1, 0), packPair(1<<31-2, 1<<31-1)}
	for i := int32(0); i < 5000; i++ {
		pairs = append(pairs, packPair(i, i*7+1))
	}
	slices.Sort(pairs)
	for _, p := range slices.Compact(pairs) {
		if f.seen(p) {
			t.Fatalf("pair %#x reported seen before it was emitted", p)
		}
		if !f.seen(p) {
			t.Fatalf("immediate repeat of %#x passed the filter", p)
		}
	}
}
