// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index and cmd/benchsuite for the
// long-form harness that prints the same rows the paper reports). Inputs
// are the synthetic surrogates at reduced size so `go test -bench=.` stays
// laptop-friendly; pass -benchfactor to grow them.
package equitruss_test

import (
	"flag"
	"fmt"
	"sync"
	"testing"

	"equitruss"
	"equitruss/internal/concur"
	"equitruss/internal/core"
	"equitruss/internal/ds"
	"equitruss/internal/dynamic"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

var benchFactor = flag.Float64("benchfactor", 0.1, "dataset size factor for benchmarks")

// --- cached inputs ----------------------------------------------------------

var (
	benchMu   sync.Mutex
	benchGs   = map[string]*graph.Graph{}
	benchTaus = map[string][]int32{}
	benchSups = map[string][]int32{}
)

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s@%f", name, *benchFactor)
	if g, ok := benchGs[key]; ok {
		return g
	}
	spec, err := gen.FindDataset(name)
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Generate(*benchFactor)
	benchGs[key] = g
	return g
}

func benchSupports(b *testing.B, name string) (*graph.Graph, []int32) {
	g := benchGraph(b, name)
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s@%f", name, *benchFactor)
	if s, ok := benchSups[key]; ok {
		return g, s
	}
	s := triangle.Supports(g, 0)
	benchSups[key] = s
	return g, s
}

func benchTau(b *testing.B, name string) (*graph.Graph, []int32) {
	g, sup := benchSupports(b, name)
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s@%f", name, *benchFactor)
	if t, ok := benchTaus[key]; ok {
		return g, t
	}
	tau, _, _ := truss.DecomposeParallelCtx(nil, g, sup, 0, nil)
	benchTaus[key] = tau
	return g, tau
}

// --- Table 3: dataset inventory ---------------------------------------------

// BenchmarkTable3Datasets measures surrogate generation and reports the
// instance sizes (the |V|, |E| columns of Table 3).
func BenchmarkTable3Datasets(b *testing.B) {
	for _, spec := range gen.Datasets {
		if spec.Name == "friendster-sim" {
			continue // benched separately in Fig7
		}
		b.Run(spec.Name, func(b *testing.B) {
			var g *graph.Graph
			for i := 0; i < b.N; i++ {
				g = spec.Generate(*benchFactor)
			}
			b.ReportMetric(float64(g.NumVertices()), "vertices")
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
}

// --- Figure 2: serial pipeline kernel breakdown -------------------------------

// BenchmarkFig2KernelBreakdownSerial times the three serial pipeline stages
// and reports the EquiTruss share of total time (the paper's motivation:
// index construction rivals truss decomposition).
func BenchmarkFig2KernelBreakdownSerial(b *testing.B) {
	for _, name := range []string{"amazon-sim", "dblp-sim"} {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name)
			var eqPct float64
			for i := 0; i < b.N; i++ {
				sg, tm, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.Serial})
				if err != nil {
					b.Fatal(err)
				}
				_ = sg
				eqPct = 100 * float64(tm.IndexTotal()) / float64(tm.Total())
			}
			b.ReportMetric(eqPct, "equitruss%")
		})
	}
}

// --- Figure 4: Baseline parallel kernel breakdown ------------------------------

// BenchmarkFig4KernelBreakdownParallel runs the Baseline builder single-
// threaded and reports the SpNode share (the dominant kernel: 79–89% in
// the paper).
func BenchmarkFig4KernelBreakdownParallel(b *testing.B) {
	for _, name := range []string{"dblp-sim", "youtube-sim"} {
		b.Run(name, func(b *testing.B) {
			g, tau := benchTau(b, name)
			var spNodePct float64
			for i := 0; i < b.N; i++ {
				_, tm, _ := core.BuildCtx(nil, g, tau, core.VariantBaseline, 1, nil)
				spNodePct = 100 * float64(tm.SpNode) / float64(tm.IndexTotal())
			}
			b.ReportMetric(spNodePct, "spnode%")
		})
	}
}

// --- Figure 5: single-thread SpNode by variant --------------------------------

// BenchmarkFig5SpNodeVariants times each variant's full single-threaded
// index construction; compare the sub-benchmark times to read off the
// C-Opt and Afforest speedups over Baseline.
func BenchmarkFig5SpNodeVariants(b *testing.B) {
	for _, name := range []string{"youtube-sim", "livejournal-sim"} {
		g, tau := benchTau(b, name)
		for _, v := range core.ParallelVariants {
			b.Run(fmt.Sprintf("%s/%s", name, v), func(b *testing.B) {
				var spnode float64
				for i := 0; i < b.N; i++ {
					_, tm, _ := core.BuildCtx(nil, g, tau, v, 1, nil)
					spnode = tm.SpNode.Seconds()
				}
				b.ReportMetric(spnode*1e3, "spnode-ms")
			})
		}
	}
}

// --- Figure 6: strong scaling --------------------------------------------------

// BenchmarkFig6StrongScaling sweeps thread counts for each variant on the
// LiveJournal surrogate (the paper's Figure 6 per-network curves).
func BenchmarkFig6StrongScaling(b *testing.B) {
	g, tau := benchTau(b, "livejournal-sim")
	for _, v := range core.ParallelVariants {
		for threads := 1; threads <= concur.MaxThreads(); threads *= 2 {
			b.Run(fmt.Sprintf("%s/threads=%d", v, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.BuildCtx(nil, g, tau, v, threads, nil)
				}
			})
		}
	}
}

// --- Figure 7: SpNode scaling on the largest graph -----------------------------

// BenchmarkFig7SpNodeFriendster runs the C-Optimal and Afforest builders on
// the Friendster stand-in (the billion-edge graph of the paper, scaled).
func BenchmarkFig7SpNodeFriendster(b *testing.B) {
	g, tau := benchTau(b, "friendster-sim")
	for _, v := range []core.Variant{core.VariantCOptimal, core.VariantAfforest} {
		for threads := 1; threads <= concur.MaxThreads(); threads *= 2 {
			b.Run(fmt.Sprintf("%s/threads=%d", v, threads), func(b *testing.B) {
				var spnode float64
				for i := 0; i < b.N; i++ {
					_, tm, _ := core.BuildCtx(nil, g, tau, v, threads, nil)
					spnode = tm.SpNode.Seconds()
				}
				b.ReportMetric(spnode*1e3, "spnode-ms")
			})
		}
	}
}

// --- Figure 8: kernels by thread count -----------------------------------------

// BenchmarkFig8KernelsByThreads reports the three major kernels' times for
// the Afforest variant across the thread sweep.
func BenchmarkFig8KernelsByThreads(b *testing.B) {
	g, tau := benchTau(b, "livejournal-sim")
	for threads := 1; threads <= concur.MaxThreads(); threads *= 2 {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var tm core.Timings
			for i := 0; i < b.N; i++ {
				_, tm, _ = core.BuildCtx(nil, g, tau, core.VariantAfforest, threads, nil)
			}
			b.ReportMetric(tm.SpNode.Seconds()*1e3, "spnode-ms")
			b.ReportMetric(tm.SpEdge.Seconds()*1e3, "spedge-ms")
			b.ReportMetric(tm.SmGraph.Seconds()*1e3, "smgraph-ms")
		})
	}
}

// --- Figure 9: parallel efficiency ---------------------------------------------

// BenchmarkFig9ParallelEfficiency reports ε = T1/(p·Tp) for the max thread
// count per variant.
func BenchmarkFig9ParallelEfficiency(b *testing.B) {
	g, tau := benchTau(b, "youtube-sim")
	p := concur.MaxThreads()
	for _, v := range core.ParallelVariants {
		b.Run(v.String(), func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				_, t1, _ := core.BuildCtx(nil, g, tau, v, 1, nil)
				_, tp, _ := core.BuildCtx(nil, g, tau, v, p, nil)
				eff = 100 * float64(t1.IndexTotal()) / (float64(p) * float64(tp.IndexTotal()))
			}
			b.ReportMetric(eff, "efficiency%")
		})
	}
}

// --- Table 4: sequential comparison --------------------------------------------

// BenchmarkTable4SequentialComparison times all four variants single-
// threaded (index-construction phases only, as in the paper's Table 4).
func BenchmarkTable4SequentialComparison(b *testing.B) {
	g, tau := benchTau(b, "dblp-sim")
	for _, v := range core.Variants {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BuildCtx(nil, g, tau, v, 1, nil)
			}
		})
	}
}

// --- Table 5: speedups and index sizes ------------------------------------------

// BenchmarkTable5SpeedupSummary times 1-thread and max-thread builds per
// variant and reports the supernode/superedge counts of Table 5.
func BenchmarkTable5SpeedupSummary(b *testing.B) {
	g, tau := benchTau(b, "youtube-sim")
	for _, v := range core.ParallelVariants {
		for _, threads := range []int{1, concur.MaxThreads()} {
			b.Run(fmt.Sprintf("%s/threads=%d", v, threads), func(b *testing.B) {
				var sg *core.SummaryGraph
				for i := 0; i < b.N; i++ {
					sg, _, _ = core.BuildCtx(nil, g, tau, v, threads, nil)
				}
				b.ReportMetric(float64(sg.NumSupernodes()), "supernodes")
				b.ReportMetric(float64(sg.NumSuperedges()), "superedges")
			})
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) -------------------------

// BenchmarkAblationTrussSerialVsParallel isolates the TrussDecomp kernel.
func BenchmarkAblationTrussSerialVsParallel(b *testing.B) {
	g, sup := benchSupports(b, "youtube-sim")
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			truss.DecomposeSerialCtx(nil, g, sup)
		}
	})
	for threads := 1; threads <= concur.MaxThreads(); threads *= 2 {
		b.Run(fmt.Sprintf("parallel/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				truss.DecomposeParallelCtx(nil, g, sup, threads, nil)
			}
		})
	}
}

// BenchmarkAblationSupportIntersection compares the merge-only support
// kernel against the adaptive galloping one on a skewed graph.
func BenchmarkAblationSupportIntersection(b *testing.B) {
	g := benchGraph(b, "orkut-sim")
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			triangle.Supports(g, 0)
		}
	})
	b.Run("gallop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			triangle.SupportsGallopingCtx(nil, g, 0, nil)
		}
	})
	b.Run("oriented", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			triangle.SupportsOrientedCtx(nil, g, 0, nil)
		}
	})
}

// BenchmarkAblationBaselineDictionaries isolates the C-Opt storage win: Π
// updates through the sharded hash map versus the flat atomic buffer.
func BenchmarkAblationBaselineDictionaries(b *testing.B) {
	const n = 1 << 16
	b.Run("sharded-map", func(b *testing.B) {
		sm := ds.NewShardedMap(n)
		for i := int64(0); i < n; i++ {
			sm.Store(i, int32(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			concur.For(nil, nil, "", n, 0, func(j int) {
				v, _ := sm.Load(int64(j))
				if v != int32(j) {
					sm.Store(int64(j), int32(j))
				}
			})
		}
	})
	b.Run("flat-buffer", func(b *testing.B) {
		buf := make([]int32, n)
		for i := range buf {
			buf[i] = int32(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			concur.For(nil, nil, "", n, 0, func(j int) {
				if buf[j] != int32(j) {
					buf[j] = int32(j)
				}
			})
		}
	})
}

// BenchmarkAblationSpNodeStrategies reproduces the §3.1 design-space
// discussion: the paper's chosen CC strategies (SV-based C-Optimal,
// Afforest) against the rejected label-propagation and BFS designs, all
// over identical flat storage.
func BenchmarkAblationSpNodeStrategies(b *testing.B) {
	g, tau := benchTau(b, "youtube-sim")
	strategies := append(append([]core.Variant(nil), core.VariantCOptimal, core.VariantAfforest), core.AblationVariants...)
	for _, v := range strategies {
		b.Run(v.String(), func(b *testing.B) {
			var spnode float64
			for i := 0; i < b.N; i++ {
				_, tm, _ := core.BuildCtx(nil, g, tau, v, 0, nil)
				spnode = tm.SpNode.Seconds()
			}
			b.ReportMetric(spnode*1e3, "spnode-ms")
		})
	}
}

// BenchmarkQueryIndexedVsDirect measures the payoff of the index at query
// time — the end-to-end reason the paper builds it.
func BenchmarkQueryIndexedVsDirect(b *testing.B) {
	g, tau := benchTau(b, "dblp-sim")
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantAfforest, 0, nil)
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		b.Fatal(err)
	}
	_ = sg
	v := int32(0)
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.Communities(v%g.NumVertices(), 4)
			v++
		}
	})
	v = 0
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			equitruss.DirectCommunities(g, tau, v%g.NumVertices(), 4)
			v++
		}
	})
}

// BenchmarkDynamicMaintenance measures incremental trussness maintenance
// (insert+delete of the same edge) against recomputing the decomposition
// from scratch — the payoff of the dynamic engine.
func BenchmarkDynamicMaintenance(b *testing.B) {
	g, tau := benchTau(b, "dblp-sim")
	dg := dynamic.FromStatic(g, tau)
	// Churn endpoints drawn from the graph's vertex range; insert a fresh
	// edge then remove it so state returns to baseline each iteration.
	b.Run("incremental-insert-delete", func(b *testing.B) {
		var u, v int32 = 0, 1
		for i := 0; i < b.N; i++ {
			u = (u + 7) % g.NumVertices()
			v = (v + 13) % g.NumVertices()
			if u == v || dg.HasEdge(u, v) {
				continue
			}
			if _, err := dg.InsertEdge(u, v); err != nil {
				b.Fatal(err)
			}
			dg.DeleteEdge(u, v)
		}
	})
	b.Run("from-scratch-decomposition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sup := triangle.Supports(g, 0)
			truss.DecomposeParallelCtx(nil, g, sup, 0, nil)
		}
	})
}
