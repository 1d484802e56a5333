package equitruss_test

import (
	"testing"

	"equitruss"
	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// TestStressModerateRMAT is the belt-and-braces integration run: a
// moderately sized skewed graph through the whole pipeline with every
// variant (including the §3.1 ablation strategies), checking exact
// agreement of indexes, structural validity, and a sample of community
// queries against the direct oracle.
func TestStressModerateRMAT(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	g := gen.RMAT(13, 10, 0.57, 0.19, 0.19, 2024)
	sup := triangle.Supports(g, 0)
	tauS, kS, _ := truss.DecomposeSerialCtx(nil, g, sup)
	tauP, kP, _ := truss.DecomposeParallelCtx(nil, g, sup, 0, nil)
	if kS != kP {
		t.Fatalf("kmax: serial %d vs parallel %d", kS, kP)
	}
	for i := range tauS {
		if tauS[i] != tauP[i] {
			t.Fatalf("τ[%d]: serial %d vs parallel %d", i, tauS[i], tauP[i])
		}
	}
	want, _, _ := core.BuildCtx(nil, g, tauS, core.VariantSerial, 1, nil)
	if err := want.Validate(g); err != nil {
		t.Fatal(err)
	}
	canon := want.Canonical(g)
	variants := append(append([]core.Variant(nil), core.ParallelVariants...), core.AblationVariants...)
	for _, v := range variants {
		got, _, _ := core.BuildCtx(nil, g, tauS, v, 0, nil)
		if err := got.Validate(g); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if got.Canonical(g) != canon {
			t.Fatalf("%s differs from serial on stress graph", v)
		}
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.NumVertices(); v += 101 {
		for _, k := range []int32{3, 4, 6} {
			a := idx.Communities(v, k)
			b := equitruss.DirectCommunities(g, tauS, v, k)
			if len(a) != len(b) {
				t.Fatalf("v=%d k=%d: indexed %d vs direct %d communities", v, k, len(a), len(b))
			}
		}
	}
}
