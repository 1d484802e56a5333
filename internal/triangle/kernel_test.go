package triangle

import (
	"context"
	"errors"
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
)

func TestParseKernelRoundTrip(t *testing.T) {
	for _, k := range []Kernel{KernelAuto, KernelMerge, KernelOriented} {
		got, err := ParseKernel(k.String())
		if err != nil {
			t.Fatalf("ParseKernel(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKernel(%q) = %v, want %v", k.String(), got, k)
		}
	}
	aliases := map[string]Kernel{
		"":                KernelAuto,
		"forward":         KernelOriented,
		"compact-forward": KernelOriented,
	}
	for s, want := range aliases {
		if got, err := ParseKernel(s); err != nil || got != want {
			t.Fatalf("ParseKernel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKernel("quantum"); err == nil {
		t.Fatal("ParseKernel accepted an unknown kernel name")
	}
}

// TestChooseKernelArms pins the auto rule on the graph families the
// benchmark workloads and the kernel sweep in docs/ALGORITHMS.md measured.
// Planted-partition graphs like the churn workload's keep merge, which runs
// within ~30% of oriented's time there at a sixth of its allocation; the
// graphs where oriented measured 1.2× faster or more resolve to oriented. A retune that flips either
// side fails here.
func TestChooseKernelArms(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want Kernel
	}{
		// The churn workload's live graph: dblp-family planted partition.
		{"churn dblp-sim planted", gen.PlantedPartition(4000, 12, 0.50, 1.6, 102), KernelMerge},
		{"dblp-sim@0.05", mustDataset(t, "dblp-sim", 0.05), KernelMerge},
		{"amazon-sim@0.05", mustDataset(t, "amazon-sim", 0.05), KernelMerge},
		{"clique 5", gen.Clique(5), KernelMerge},
		// The build workload's input: orkut-family R-MAT at scale 13.
		{"build orkut-sim rmat13", gen.RMAT(13, 10, 0.5, 0.22, 0.22, 105), KernelOriented},
		{"youtube-sim@0.05", mustDataset(t, "youtube-sim", 0.05), KernelOriented},
		{"flat ER, mean degree 10", gen.ErdosRenyi(10000, 50000, 3), KernelOriented},
		{"flat R-MAT", gen.RMAT(14, 8, 0.25, 0.25, 0.25, 1), KernelOriented},
		{"rmat12-4", gen.RMAT(12, 4, 0.57, 0.19, 0.19, 1), KernelOriented},
	}
	for _, tc := range cases {
		if k := ChooseKernel(tc.g); k != tc.want {
			t.Errorf("%s chose %v, want %v", tc.name, k, tc.want)
		}
	}
	empty, _ := graph.FromEdgeList(nil, 4)
	if k := ChooseKernel(empty); k != KernelMerge {
		t.Errorf("edgeless graph chose %v, want merge", k)
	}
}

func mustDataset(t *testing.T, name string, factor float64) *graph.Graph {
	t.Helper()
	g, err := gen.Dataset(name, factor)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestKernelsAgreeOnAllDatasets is the differential gate: every explicit
// kernel (and auto) must produce bit-identical supports on every dataset
// surrogate plus a skewed RMAT graph. Runs under -race in `make ci`.
func TestKernelsAgreeOnAllDatasets(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat12": gen.RMAT(12, 8, 0.57, 0.19, 0.19, 7),
	}
	for _, spec := range gen.Datasets {
		graphs[spec.Name] = spec.Generate(0.01)
	}
	for name, g := range graphs {
		want, _ := SupportsKernelCtx(nil, g, KernelMerge, 3, nil)
		for _, k := range []Kernel{KernelOriented, KernelAuto} {
			got, _ := SupportsKernelCtx(nil, g, k, 3, nil)
			if len(got) != len(want) {
				t.Fatalf("%s/%v: %d supports, want %d", name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%v: support[%d] = %d, want %d", name, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCountInvariant: the sum of edge supports is exactly three times the
// triangle count (each triangle credits its three edges once), for every
// kernel; the oriented kernel's triangle counter gives the count directly.
func TestCountInvariant(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 9)
	before := cOrientedTriangles.Value()
	if _, err := SupportsOrientedCtx(nil, g, 2, nil); err != nil {
		t.Fatal(err)
	}
	want := int64(cOrientedTriangles.Value() - before)
	if want <= 0 {
		t.Fatalf("RMAT-11 triangle count = %d", want)
	}
	for _, k := range []Kernel{KernelMerge, KernelOriented} {
		var sum int64
		sup, _ := SupportsKernelCtx(nil, g, k, 2, nil)
		for _, s := range sup {
			sum += int64(s)
		}
		if sum%3 != 0 {
			t.Fatalf("%v: support sum %d not divisible by 3", k, sum)
		}
		if sum/3 != want {
			t.Fatalf("%v: %d triangles via supports, the oriented kernel enumerated %d", k, sum/3, want)
		}
	}
}

func TestSupportsCtxFormsCancel(t *testing.T) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SupportsOrientedCtx(ctx, g, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled SupportsOrientedCtx returned %v", err)
	}
	if _, err := SupportsKernelCtx(ctx, g, KernelAuto, 2, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled SupportsKernelCtx returned %v", err)
	}
}

// TestOrientedSpansNamedSupport: the oriented kernel must report itself
// under the same "Support" span name as the merge kernel, so pipeline
// reports aggregate the stage no matter which kernel ran.
func TestOrientedSpansNamedSupport(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	tr := obs.NewTrace()
	if _, err := SupportsOrientedCtx(context.Background(), g, 3, tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("oriented kernel emitted no spans")
	}
	for _, s := range tr.Spans() {
		if s.Name != "Support" {
			t.Fatalf("span named %q, want Support", s.Name)
		}
	}
}
