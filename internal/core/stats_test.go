package core_test

import (
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
)

func TestComputeStatsFigure3(t *testing.T) {
	g := gen.PaperFigure3()
	tau := buildTau(t, g)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 2, nil)
	st := sg.ComputeStats()
	if st.Supernodes != 5 || st.Superedges != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IndexedEdges != 27 || st.Tau2Edges != 0 {
		t.Fatalf("edge accounting: %+v", st)
	}
	if st.KMax != 5 {
		t.Fatalf("kmax = %d", st.KMax)
	}
	if st.KHistogram[3] != 2 || st.KHistogram[4] != 2 || st.KHistogram[5] != 1 {
		t.Fatalf("k histogram = %v", st.KHistogram)
	}
	if st.LargestSupernode != 10 {
		t.Fatalf("largest = %d", st.LargestSupernode)
	}
	if st.MeanSupernodeSize != 27.0/5.0 {
		t.Fatalf("mean = %f", st.MeanSupernodeSize)
	}
	s := st.String()
	for _, want := range []string{"supernodes=5", "kmax=5", "3:2", "5:1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestComputeStatsWithTau2Edges(t *testing.T) {
	g := gen.BridgedCliques(5) // bridge edge has τ=2
	tau := buildTau(t, g)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantAfforest, 2, nil)
	st := sg.ComputeStats()
	if st.Tau2Edges != 1 {
		t.Fatalf("tau2 edges = %d, want 1 (the bridge)", st.Tau2Edges)
	}
	if st.Supernodes != 2 || st.LargestSupernode != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g := gen.Path(5)
	tau := buildTau(t, g)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 1, nil)
	st := sg.ComputeStats()
	if st.Supernodes != 0 || st.MeanSupernodeSize != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAfforestDominantSkip exercises the sampling skip path: a graph whose
// index is one giant supernode (triangle strip) plus a few small cliques.
// The strip dominates, so the finalization pass skips most edges — the
// result must still be exact.
func TestAfforestDominantSkip(t *testing.T) {
	strip := gen.TriangleStrip(5000) // ~10k τ=3 edges, one supernode
	// Append small K5s as separate components.
	base := strip.NumVertices()
	all := append([]graph.Edge(nil), strip.Edges()...)
	for c := int32(0); c < 8; c++ {
		off := base + c*5
		for u := int32(0); u < 5; u++ {
			for v := u + 1; v < 5; v++ {
				all = append(all, graph.Edge{U: off + u, V: off + v})
			}
		}
	}
	g, err := graph.FromEdgeList(all, 0)
	if err != nil {
		t.Fatal(err)
	}
	tau := buildTau(t, g)
	want, _, _ := core.BuildCtx(nil, g, tau, core.VariantSerial, 1, nil)
	got, _, _ := core.BuildCtx(nil, g, tau, core.VariantAfforest, 2, nil)
	if err := got.Validate(g); err != nil {
		t.Fatal(err)
	}
	if got.Canonical(g) != want.Canonical(g) {
		t.Fatal("afforest with dominant skip differs from serial")
	}
	st := got.ComputeStats()
	if st.Supernodes != 9 { // strip + 8 cliques
		t.Fatalf("supernodes = %d, want 9", st.Supernodes)
	}
}
