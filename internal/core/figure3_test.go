package core_test

import (
	"fmt"
	"sort"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// buildTau runs the prerequisite kernels for a test graph.
func buildTau(t testing.TB, g *graph.Graph) []int32 {
	t.Helper()
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	return tau
}

// edgeSetNames renders a supernode's members as endpoint pairs for
// comparison against the paper's figure.
func edgeSetNames(g *graph.Graph, eids []int32) []string {
	out := make([]string, len(eids))
	for i, e := range eids {
		ed := g.Edge(e)
		out[i] = fmt.Sprintf("(%d,%d)", ed.U, ed.V)
	}
	sort.Strings(out)
	return out
}

// TestPaperFigure3 checks the worked example of the paper exactly: the
// 11-vertex graph of Figure 3 must produce the five published supernodes
// with the exact member edges and the four published superedges — for
// every variant.
func TestPaperFigure3(t *testing.T) {
	g := gen.PaperFigure3()
	tau := buildTau(t, g)

	wantSupernodes := map[string][]string{
		"k=3 " + "(0,4)":  {"(0,4)"},
		"k=4 " + "(0,1)":  {"(0,1)", "(0,2)", "(0,3)", "(1,2)", "(1,3)", "(2,3)"},
		"k=3 " + "(2,6)":  {"(2,6)", "(2,8)"},
		"k=4 " + "(3,4)":  {"(3,4)", "(3,5)", "(3,6)", "(4,5)", "(4,6)", "(5,10)", "(5,6)", "(5,7)"},
		"k=5 " + "(6,10)": {"(6,10)", "(6,7)", "(6,8)", "(6,9)", "(7,10)", "(7,8)", "(7,9)", "(8,10)", "(8,9)", "(9,10)"},
	}

	for _, variant := range core.Variants {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			sg, _, _ := core.BuildCtx(nil, g, tau, variant, 2, nil)
			if err := sg.Validate(g); err != nil {
				t.Fatalf("invalid index: %v", err)
			}
			if got := sg.NumSupernodes(); got != 5 {
				t.Fatalf("supernodes = %d, want 5", got)
			}
			if got := sg.NumSuperedges(); got != 6 {
				t.Fatalf("superedges = %d, want 6", got)
			}
			// Match each built supernode against the expected sets.
			for s := int32(0); s < sg.NumSupernodes(); s++ {
				names := edgeSetNames(g, sg.SupernodeEdges(s))
				key := fmt.Sprintf("k=%d %s", sg.K[s], names[0])
				want, ok := wantSupernodes[key]
				if !ok {
					t.Fatalf("unexpected supernode %s: %v", key, names)
				}
				if fmt.Sprint(names) != fmt.Sprint(want) {
					t.Errorf("supernode %s members = %v, want %v", key, names, want)
				}
			}
			// Expected superedges by (k of endpoints, smallest member).
			type se struct{ a, b string }
			var got []se
			for s := int32(0); s < sg.NumSupernodes(); s++ {
				sa := edgeSetNames(g, sg.SupernodeEdges(s))[0]
				for _, nb := range sg.SupernodeNeighbors(s) {
					sb := edgeSetNames(g, sg.SupernodeEdges(nb))[0]
					if sa < sb {
						got = append(got, se{sa, sb})
					}
				}
			}
			sort.Slice(got, func(i, j int) bool {
				if got[i].a != got[j].a {
					return got[i].a < got[j].a
				}
				return got[i].b < got[j].b
			})
			// Derived by hand from Definitions 8–9: the mixed-trussness
			// triangles are (0,3,4) → ν0–ν1, ν0–ν3; (2,3,6) → ν2–ν1,
			// ν2–ν3; (2,6,8) → ν2–ν4; (5,6,7)/(5,6,10)/(5,7,10) → ν3–ν4.
			want := []se{
				{"(0,1)", "(0,4)"},  // ν1 – ν0
				{"(0,1)", "(2,6)"},  // ν1 – ν2
				{"(0,4)", "(3,4)"},  // ν0 – ν3
				{"(2,6)", "(3,4)"},  // ν2 – ν3
				{"(2,6)", "(6,10)"}, // ν2 – ν4
				{"(3,4)", "(6,10)"}, // ν3 – ν4
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("superedges = %v, want %v", got, want)
			}
		})
	}
}

// TestPaperFigure3Trussness pins the trussness values of Figure 3a.
func TestPaperFigure3Trussness(t *testing.T) {
	g := gen.PaperFigure3()
	tau := buildTau(t, g)
	want := map[string]int32{
		"(0,4)": 3, "(2,6)": 3, "(2,8)": 3,
		"(0,1)": 4, "(0,2)": 4, "(0,3)": 4, "(1,2)": 4, "(1,3)": 4, "(2,3)": 4,
		"(3,4)": 4, "(3,5)": 4, "(3,6)": 4, "(4,5)": 4, "(4,6)": 4, "(5,6)": 4,
		"(5,7)": 4, "(5,10)": 4,
		"(6,7)": 5, "(6,8)": 5, "(6,9)": 5, "(6,10)": 5, "(7,8)": 5,
		"(7,9)": 5, "(7,10)": 5, "(8,9)": 5, "(8,10)": 5, "(9,10)": 5,
	}
	if int(g.NumEdges()) != len(want) {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), len(want))
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		ed := g.Edge(e)
		name := fmt.Sprintf("(%d,%d)", ed.U, ed.V)
		if tau[e] != want[name] {
			t.Errorf("τ%s = %d, want %d", name, tau[e], want[name])
		}
	}
}
