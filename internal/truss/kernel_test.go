package truss

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
)

var allPeelKernels = []PeelKernel{PeelSerial, PeelLevelSync, PeelPKT, PeelAuto}

func TestPeelKernelParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PeelKernel
	}{
		{"auto", PeelAuto}, {"", PeelAuto},
		{"serial", PeelSerial},
		{"levelsync", PeelLevelSync}, {"level-sync", PeelLevelSync}, {"ls", PeelLevelSync},
		{"pkt", PeelPKT}, {"scanfree", PeelPKT}, {"scan-free", PeelPKT},
	} {
		got, err := ParsePeelKernel(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePeelKernel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePeelKernel("bogus"); err == nil {
		t.Fatal("ParsePeelKernel accepted bogus name")
	}
	for _, k := range allPeelKernels {
		if _, err := ParsePeelKernel(k.String()); err != nil {
			t.Fatalf("round-trip %v: %v", k, err)
		}
	}
}

func TestChoosePeelKernel(t *testing.T) {
	if k := ChoosePeelKernel(100, 5, 8); k != PeelSerial {
		t.Fatalf("tiny graph chose %v, want serial", k)
	}
	if k := ChoosePeelKernel(1<<21, 2000, 8); k != PeelPKT {
		t.Fatalf("large spread chose %v, want pkt", k)
	}
	if k := ChoosePeelKernel(1<<16, 4, 8); k != PeelLevelSync {
		t.Fatalf("flat mid-size chose %v, want levelsync", k)
	}
	if k := ChoosePeelKernel(1<<16, 4, 1); k != PeelSerial {
		t.Fatalf("flat mid-size on 1 thread chose %v, want serial", k)
	}
}

// TestPKTMatchesSerial: randomized differential equality of the scan-free
// kernel (and the dispatcher over every kernel) against the serial bucket
// queue, including kmax.
func TestPKTMatchesSerial(t *testing.T) {
	check := func(seed int64) bool {
		g := randomGraph(seed, 30, 0.25)
		sup := triangle.Supports(g, 2)
		want, wantK, _ := DecomposeSerialCtx(nil, g, sup)
		for _, threads := range []int{1, 2, 4} {
			got, gotK, _ := DecomposePKTCtx(nil, g, sup, threads, nil)
			if gotK != wantK {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		for _, k := range allPeelKernels {
			got, gotK, _ := DecomposeKernelCtx(nil, g, sup, k, 2, nil)
			if gotK != wantK {
				return false
			}
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

func TestPKTMatchesSerialOnStructuredGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"figure3":    gen.PaperFigure3(),
		"planted":    gen.PlantedPartition(10, 8, 0.8, 1.0, 5),
		"rmat":       gen.RMAT(10, 6, 0.57, 0.19, 0.19, 6),
		"ba":         gen.BarabasiAlbert(400, 4, 7),
		"clique":     gen.Clique(12),
		"strip":      gen.TriangleStrip(50),
		"sharedEdge": gen.SharedEdgeCliquePair(6, 5),
	}
	for name, g := range graphs {
		sup := triangle.Supports(g, 2)
		want, wantK, _ := DecomposeSerialCtx(nil, g, sup)
		for _, threads := range []int{1, 3} {
			got, gotK, _ := DecomposePKTCtx(nil, g, sup, threads, nil)
			if gotK != wantK {
				t.Fatalf("%s threads=%d: kmax %d vs serial %d", name, threads, gotK, wantK)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s threads=%d: τ[%d] pkt %d vs serial %d", name, threads, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPKTLevelSkip reuses the triangle-next-to-K16 gap graph: the bucket
// index must jump the 12 empty levels between support 1 and 14 without
// touching dead edges, keeping τ and kmax bit-identical to serial.
func TestPKTLevelSkip(t *testing.T) {
	in := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}
	const base, n = int32(3), int32(16)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			in = append(in, graph.Edge{U: base + u, V: base + v})
		}
	}
	g, err := graph.FromEdgeList(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	sup := triangle.Supports(g, 2)
	want, wantK, _ := DecomposeSerialCtx(nil, g, sup)
	before := cPeelLevelSkips.Value()
	for _, threads := range []int{1, 2, 4} {
		got, gotK, _ := DecomposePKTCtx(nil, g, sup, threads, nil)
		if gotK != wantK {
			t.Fatalf("threads=%d: kmax %d vs %d", threads, gotK, wantK)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d: τ[%d] pkt %d vs serial %d", threads, i, got[i], want[i])
			}
		}
	}
	if skips := cPeelLevelSkips.Value() - before; skips < 12 {
		t.Fatalf("level skips = %d, want >= 12", skips)
	}
}

// TestFrontierAdmissionAccounting pins the counter contract of both
// parallel peeling kernels: every edge is admitted to a frontier exactly
// once — either by a level-start seed (truss_peel_seed_admissions) or by a
// support-transition capture (truss_frontier_captures) — so for a full
// decomposition seeds + captures equals the edge count exactly. A
// double-counted capture (an edge re-admitted in a later sub-round of the
// same level) would break the equality.
func TestFrontierAdmissionAccounting(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":    gen.RMAT(10, 6, 0.57, 0.19, 0.19, 6),
		"clique":  gen.Clique(16),
		"planted": gen.PlantedPartition(12, 9, 0.7, 1.2, 3),
	}
	for name, g := range graphs {
		sup := triangle.Supports(g, 2)
		m := int64(g.NumEdges())
		for _, kernel := range []PeelKernel{PeelLevelSync, PeelPKT} {
			for _, threads := range []int{1, 4} {
				seeds0, caps0 := cPeelSeeds.Value(), cPeelCaptures.Value()
				DecomposeKernelCtx(nil, g, sup, kernel, threads, nil)
				seeds := cPeelSeeds.Value() - seeds0
				caps := cPeelCaptures.Value() - caps0
				if seeds+caps != m {
					t.Fatalf("%s/%v threads=%d: seeds %d + captures %d = %d, want exactly m=%d",
						name, kernel, threads, seeds, caps, seeds+caps, m)
				}
			}
		}
	}
}

// TestKMaxInvariant: every kernel must return kmax equal to the maximum
// trussness it assigned — including when the final frontier peels the last
// edges at a support below the last processed level after a level skip
// (the gap graph ends in a K16 peeled after a 12-level jump).
func TestKMaxInvariant(t *testing.T) {
	in := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}
	const base, n = int32(3), int32(16)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			in = append(in, graph.Edge{U: base + u, V: base + v})
		}
	}
	gap, err := graph.FromEdgeList(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"gap":     gap,
		"rmat":    gen.RMAT(9, 5, 0.57, 0.19, 0.19, 11),
		"path":    gen.Path(10), // triangle-free: kmax must be MinTrussness
		"bridged": gen.BridgedCliques(6),
	}
	for name, g := range graphs {
		sup := triangle.Supports(g, 2)
		for _, kernel := range allPeelKernels {
			tau, kmax, _ := DecomposeKernelCtx(nil, g, sup, kernel, 4, nil)
			if want := KMax(tau); kmax != want {
				t.Fatalf("%s/%v: kmax = %d, want max τ = %d", name, kernel, kmax, want)
			}
		}
	}
}

// TestPKTCancellation: a pre-canceled context must abort the scan-free
// kernel promptly with ctx.Err() and no trussness.
func TestPKTCancellation(t *testing.T) {
	g := gen.RMAT(10, 6, 0.57, 0.19, 0.19, 6)
	sup := triangle.Supports(g, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tau, _, err := DecomposePKTCtx(ctx, g, sup, 2, nil)
	if err == nil || tau != nil {
		t.Fatalf("canceled pkt returned tau=%v err=%v, want nil, ctx.Err()", tau, err)
	}
}

func TestDecomposeKernelEmpty(t *testing.T) {
	g, _ := graph.FromEdgeList(nil, 4)
	for _, k := range allPeelKernels {
		tau, kmax, _ := DecomposeKernelCtx(nil, g, nil, k, 2, nil)
		if len(tau) != 0 || kmax != MinTrussness {
			t.Fatalf("%v empty: tau=%v kmax=%d", k, tau, kmax)
		}
	}
}

func TestDecomposeKernelUnknown(t *testing.T) {
	g := gen.Clique(4)
	sup := triangle.Supports(g, 1)
	if _, _, err := DecomposeKernelCtx(context.Background(), g, sup, PeelKernel(99), 1, nil); err == nil {
		t.Fatal("unknown kernel did not error")
	}
}

func BenchmarkPeelKernels(b *testing.B) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 42)
	sup := triangle.Supports(g, 0)
	for _, k := range []PeelKernel{PeelSerial, PeelLevelSync, PeelPKT} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DecomposeKernelCtx(nil, g, sup, k, 0, nil)
			}
		})
	}
}
