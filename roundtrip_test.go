package equitruss_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"equitruss"
)

// canonCommunities renders a community list order-independently (member
// edges are already ascending) so answers from different code paths can be
// compared exactly.
func canonCommunities(cs []*equitruss.Community) string {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = fmt.Sprint(c.K, c.Edges)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// TestSaveLoadRoundTripAllVariants saves and reloads an index built by each
// of the four construction variants and checks the reloaded index answers
// every (vertex, k) query exactly like the index-free DirectCommunities
// oracle — the full persistence path has to preserve query semantics, not
// just array shapes.
func TestSaveLoadRoundTripAllVariants(t *testing.T) {
	g := equitruss.GenerateRMAT(8, 6, 17)
	tau := equitruss.Trussness(g, 2)
	variants := []equitruss.Variant{
		equitruss.Serial, equitruss.Baseline, equitruss.COptimal, equitruss.Afforest,
	}
	for _, variant := range variants {
		t.Run(variant.String(), func(t *testing.T) {
			idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: variant, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "g.idx")
			if err := equitruss.SaveIndexFile(path, idx.SG); err != nil {
				t.Fatal(err)
			}
			loaded, _, err := equitruss.OpenIndexFile(path, g, equitruss.VerifyEager)
			if err != nil {
				t.Fatal(err)
			}
			for v := int32(0); v < 30 && v < g.NumVertices(); v++ {
				for _, k := range []int32{3, 4, 5} {
					want := canonCommunities(equitruss.DirectCommunities(g, tau, v, k))
					got := canonCommunities(loaded.Communities(v, k))
					if got != want {
						t.Fatalf("v=%d k=%d: loaded index answer diverges from oracle\n got %s\nwant %s",
							v, k, got, want)
					}
				}
			}
		})
	}
}
