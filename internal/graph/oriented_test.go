package graph_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
)

// orientedGraphs covers skewed (R-MAT), community-structured (planted
// partition) and degree-tied graphs (clique, strip, cycle: many equal
// degrees, so the id tie-break decides the orientation).
func orientedGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":    gen.RMAT(10, 8, 0.57, 0.19, 0.19, 5),
		"rmat-hi": gen.RMAT(9, 16, 0.45, 0.25, 0.15, 6),
		"planted": gen.PlantedPartition(12, 10, 0.7, 1.5, 7),
		"clique":  gen.Clique(12),
		"strip":   gen.TriangleStrip(60),
		"cycle":   gen.Cycle(30),
		"figure3": gen.PaperFigure3(),
	}
}

// triangleKey names a triangle by its sorted vertex triple.
func triangleKey(u, v, w int32) [3]int32 {
	k := []int32{u, v, w}
	slices.Sort(k)
	return [3]int32{k[0], k[1], k[2]}
}

// ranksBelow reports whether u comes before v in ascending (degree, id)
// order.
func ranksBelow(g *graph.Graph, u, v int32) bool {
	du, dv := g.Degree(u), g.Degree(v)
	return du < dv || (du == dv && u < v)
}

// orientedTriangle recovers the vertices u, v, w of a visited triangle from
// its edge IDs and reports whether they have the documented shape: e = (u, v),
// e1 = (u, w), e2 = (v, w), with u, v, w in ascending rank order.
func orientedTriangle(g *graph.Graph, e, e1, e2 int32) ([3]int32, bool) {
	a, f1 := g.Edge(e), g.Edge(e1)
	u, w := f1.U, f1.V
	if u != a.U && u != a.V {
		u, w = w, u
	}
	v := a.U + a.V - u
	ok := (u == a.U || u == a.V) && w != v &&
		g.Edge(e2) == (graph.Edge{U: v, V: w}).Canonical() &&
		ranksBelow(g, u, v) && ranksBelow(g, v, w)
	return triangleKey(u, v, w), ok
}

// TestOrientedVisitsEachTriangleOnce checks the enumeration against the
// per-edge neighborhood scan: every triangle is visited exactly once, from
// 1, 2 and 4 workers, with its edges in the documented rank order.
func TestOrientedVisitsEachTriangleOnce(t *testing.T) {
	for name, g := range orientedGraphs() {
		want := map[[3]int32]bool{}
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			ed := g.Edge(e)
			g.ForEachTriangleOf(e, func(w, _, _ int32) bool {
				want[triangleKey(ed.U, ed.V, w)] = true
				return true
			})
		}
		og, err := graph.Orient(context.Background(), g, 2, nil, "test")
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 4} {
			var mu sync.Mutex
			seen := map[[3]int32]int{}
			n, err := og.ForEachTriangle(context.Background(), nil, "test", threads, func(_ int, e, e1, e2 int32) {
				k, ok := orientedTriangle(g, e, e1, e2)
				mu.Lock()
				defer mu.Unlock()
				if !ok {
					k = [3]int32{-1, -1, -1}
				}
				seen[k]++
			})
			if err != nil {
				t.Fatalf("%s/%d: %v", name, threads, err)
			}
			if n != int64(len(want)) || len(seen) != len(want) {
				t.Fatalf("%s/%d: visited %d triangles (%d distinct), want %d", name, threads, n, len(seen), len(want))
			}
			for k, c := range seen {
				if c != 1 || !want[k] {
					t.Fatalf("%s/%d: triangle %v visited %d times (real: %v)", name, threads, k, c, want[k])
				}
			}
		}
	}
}

// TestOrientedEmptyAndTriangleFree: no triangles, no calls.
func TestOrientedEmptyAndTriangleFree(t *testing.T) {
	empty, err := graph.FromEdgeList(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{empty, gen.Path(10), gen.Cycle(9)} {
		og, err := graph.Orient(nil, g, 2, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		n, err := og.ForEachTriangle(nil, nil, "", 2, func(int, int32, int32, int32) {
			t.Error("callback on a triangle-free graph")
		})
		if n != 0 || err != nil {
			t.Fatalf("got %d, %v", n, err)
		}
	}
}

// TestOrientedCancelStopsAtClaim cancels from inside the first callback:
// the enumeration must return context.Canceled without finishing the pass.
func TestOrientedCancelStopsAtClaim(t *testing.T) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 9)
	og, err := graph.Orient(nil, g, 2, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	total, _ := og.ForEachTriangle(nil, nil, "", 2, func(int, int32, int32, int32) {})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n, err := og.ForEachTriangle(ctx, nil, "", 2, func(int, int32, int32, int32) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled enumeration returned %v", err)
	}
	if n >= total {
		t.Fatalf("canceled enumeration visited all %d triangles", n)
	}
	if _, err := graph.Orient(ctx, g, 2, nil, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("Orient under a canceled context returned %v", err)
	}
}
