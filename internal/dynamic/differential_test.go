package dynamic

import (
	"math/rand"
	"testing"

	"equitruss/internal/gen"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// TestBatchChurnOnSurrogatesMatchesOracle drives random insert/delete
// batches on small instances of the paper's dataset surrogates and compares
// TauSnapshot against a full static recompute after every batch — the
// lowerToFixpoint/pending interplay checked against the oracle on graphs
// with realistic community structure and skew, not just the hand-built
// shapes of the other churn tests.
func TestBatchChurnOnSurrogatesMatchesOracle(t *testing.T) {
	surrogates := []struct {
		name   string
		factor float64
	}{
		{"amazon-sim", 0.01},
		{"dblp-sim", 0.01},
		{"youtube-sim", 0.01}, // clamps to the generator's minimum RMAT scale
	}
	const (
		batches   = 4
		batchSize = 12
	)
	for _, s := range surrogates {
		g, err := gen.Dataset(s.name, s.factor)
		if err != nil {
			t.Fatal(err)
		}
		if testing.Short() && g.NumEdges() > 3000 {
			t.Skipf("%s too large for -short", s.name)
		}
		sup := triangle.Supports(g, 1)
		tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
		dg := FromStatic(g, tau)
		assertExact(t, dg, s.name+" import")
		rnd := rand.New(rand.NewSource(int64(len(s.name))))
		n := int(g.NumVertices())
		for b := 0; b < batches; b++ {
			for op := 0; op < batchSize; op++ {
				u := int32(rnd.Intn(n))
				v := int32(rnd.Intn(n))
				if u == v {
					continue
				}
				if dg.HasEdge(u, v) {
					dg.DeleteEdge(u, v)
				} else if _, err := dg.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
			assertExact(t, dg, s.name)
		}
	}
}
