package triangle

import (
	"math/rand"
	"testing"
	"testing/quick"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
)

func randomGraph(seed int64, n int32, p float64) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	var in []graph.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rnd.Float64() < p {
				in = append(in, graph.Edge{U: u, V: v})
			}
		}
	}
	g, err := graph.FromEdgeList(in, n)
	if err != nil {
		panic(err)
	}
	return g
}

// bruteSupports counts triangles per edge by checking every vertex.
func bruteSupports(g *graph.Graph) []int32 {
	n := g.NumVertices()
	sup := make([]int32, g.NumEdges())
	for eid := int32(0); eid < int32(g.NumEdges()); eid++ {
		e := g.Edge(eid)
		for w := int32(0); w < n; w++ {
			if w != e.U && w != e.V && g.HasEdge(e.U, w) && g.HasEdge(e.V, w) {
				sup[eid]++
			}
		}
	}
	return sup
}

func TestSupportsKnownShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want func(eid int32) int32
	}{
		{"K5", gen.Clique(5), func(int32) int32 { return 3 }},
		{"path", gen.Path(6), func(int32) int32 { return 0 }},
		{"cycle", gen.Cycle(8), func(int32) int32 { return 0 }},
		{"triangle", gen.Clique(3), func(int32) int32 { return 1 }},
	}
	for _, tc := range cases {
		sup := Supports(tc.g, 2)
		for eid, s := range sup {
			if want := tc.want(int32(eid)); s != want {
				t.Errorf("%s: support[%d] = %d, want %d", tc.name, eid, s, want)
			}
		}
	}
}

func TestSupportsMatchesBrute(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 20, 0.3)
		want := bruteSupports(g)
		for _, threads := range []int{1, 2, 4} {
			got := Supports(g, threads)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			got, _ = SupportsGallopingCtx(nil, g, threads, nil)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			got, _ = SupportsOrientedCtx(nil, g, threads, nil)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSupportsGallopingOnSkewedGraph(t *testing.T) {
	// A star-plus-clique graph exercises the galloping path (hub adjacency
	// much longer than leaf adjacency).
	var in []graph.Edge
	for v := int32(1); v < 600; v++ {
		in = append(in, graph.Edge{U: 0, V: v})
	}
	for u := int32(1); u < 20; u++ {
		for v := u + 1; v < 20; v++ {
			in = append(in, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdgeList(in, 600)
	if err != nil {
		t.Fatal(err)
	}
	merge := Supports(g, 2)
	gallop, _ := SupportsGallopingCtx(nil, g, 2, nil)
	oriented, _ := SupportsOrientedCtx(nil, g, 2, nil)
	for i := range merge {
		if merge[i] != gallop[i] {
			t.Fatalf("edge %d: merge %d vs gallop %d", i, merge[i], gallop[i])
		}
		if merge[i] != oriented[i] {
			t.Fatalf("edge %d: merge %d vs oriented %d", i, merge[i], oriented[i])
		}
	}
}

func TestCountKnown(t *testing.T) {
	if got := Count(gen.Clique(5), 2); got != 10 {
		t.Fatalf("K5 triangles = %d, want 10", got)
	}
	if got := Count(gen.Clique(6), 2); got != 20 {
		t.Fatalf("K6 triangles = %d, want 20", got)
	}
	if got := Count(gen.Path(10), 2); got != 0 {
		t.Fatalf("path triangles = %d", got)
	}
	if got := Count(gen.PaperFigure3(), 1); got <= 0 {
		t.Fatalf("figure 3 triangles = %d", got)
	}
}

func TestSupportsEmptyGraph(t *testing.T) {
	g, _ := graph.FromEdgeList(nil, 3)
	if sup := Supports(g, 2); len(sup) != 0 {
		t.Fatalf("supports on edgeless graph: %v", sup)
	}
	if Count(g, 2) != 0 {
		t.Fatal("count on edgeless graph")
	}
}

func TestGallopIntersectEdges(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int32
	}{
		{nil, []int32{1, 2, 3}, 0},
		{[]int32{2}, []int32{1, 2, 3}, 1},
		{[]int32{0, 5, 9}, []int32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2},
		{[]int32{10}, []int32{1, 2, 3}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
	}
	for i, tc := range cases {
		if got := gallopIntersect(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: gallop = %d, want %d", i, got, tc.want)
		}
		if got := mergeIntersect(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: merge = %d, want %d", i, got, tc.want)
		}
	}
}

func TestSupportsOrientedOnGenerators(t *testing.T) {
	graphs := []*graph.Graph{
		gen.PaperFigure3(),
		gen.RMAT(10, 8, 0.57, 0.19, 0.19, 33),
		gen.PlantedPartition(6, 9, 0.7, 1.0, 34),
		gen.Clique(9),
	}
	for gi, g := range graphs {
		want := Supports(g, 2)
		got, _ := SupportsOrientedCtx(nil, g, 2, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("graph %d edge %d: oriented %d vs merge %d", gi, i, got[i], want[i])
			}
		}
	}
}

func TestSupportsOrientedEmpty(t *testing.T) {
	g, _ := graph.FromEdgeList(nil, 5)
	if s, _ := SupportsOrientedCtx(nil, g, 2, nil); len(s) != 0 {
		t.Fatalf("oriented supports on empty graph: %v", s)
	}
}
