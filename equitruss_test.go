package equitruss_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"equitruss"
)

func TestBuildIndexQuickstart(t *testing.T) {
	// The README example, end to end.
	g, err := equitruss.NewGraph([]equitruss.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		t.Fatal(err)
	}
	cs := idx.Communities(0, 3)
	if len(cs) != 1 {
		t.Fatalf("communities = %d, want 1", len(cs))
	}
	if got := fmt.Sprint(cs[0].Vertices()); got != "[0 1 2]" {
		t.Fatalf("community vertices = %s", got)
	}
}

func TestAllVariantsAgreeViaPublicAPI(t *testing.T) {
	g, err := equitruss.GenerateDataset("amazon-sim", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var canon string
	for _, variant := range []equitruss.Variant{equitruss.Serial, equitruss.Baseline, equitruss.COptimal, equitruss.Afforest} {
		sg, tm, err := equitruss.BuildSummary(g, equitruss.Options{Variant: variant, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if tm.Total() <= 0 {
			t.Fatalf("%v: no timings", variant)
		}
		c := sg.Canonical(g)
		if canon == "" {
			canon = c
		} else if c != canon {
			t.Fatalf("variant %v disagrees", variant)
		}
	}
}

func TestTrussnessHelper(t *testing.T) {
	g := equitruss.GenerateRMAT(9, 6, 5)
	t1 := equitruss.Trussness(g, 1)
	t2 := equitruss.Trussness(g, 2)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trussness differs at %d: %d vs %d", i, t1[i], t2[i])
		}
	}
	sup := equitruss.Supports(g, 2)
	if len(sup) != int(g.NumEdges()) {
		t.Fatalf("supports length %d", len(sup))
	}
}

func TestSerialTrussOption(t *testing.T) {
	g := equitruss.GenerateRMAT(8, 4, 6)
	a, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.COptimal, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.COptimal, Threads: 2, SerialTruss: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical(g) != b.Canonical(g) {
		t.Fatal("SerialTruss changed the result")
	}
}

func TestIndexSaveLoad(t *testing.T) {
	g, err := equitruss.GenerateDataset("dblp", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.idx")
	if err := equitruss.SaveIndexFile(path, idx.SG); err != nil {
		t.Fatal(err)
	}
	idx2, _, err := equitruss.OpenIndexFile(path, g, equitruss.VerifyEager)
	if err != nil {
		t.Fatal(err)
	}
	// Queries through the loaded index must match.
	for v := int32(0); v < 20; v++ {
		a := idx.Communities(v, 4)
		b := idx2.Communities(v, 4)
		if len(a) != len(b) {
			t.Fatalf("v=%d: %d vs %d communities", v, len(a), len(b))
		}
	}
	// Mismatched graph must be rejected.
	other := equitruss.GenerateRMAT(6, 3, 9)
	if _, _, err := equitruss.OpenIndexFile(path, other, equitruss.VerifyEager); err == nil {
		t.Fatal("index accepted for wrong graph")
	}
}

func TestDirectCommunitiesExported(t *testing.T) {
	g, _ := equitruss.NewGraph([]equitruss.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 0)
	tau := equitruss.Trussness(g, 1)
	cs := equitruss.DirectCommunities(g, tau, 0, 3)
	if len(cs) != 1 || len(cs[0].Edges) != 3 {
		t.Fatalf("direct communities = %v", cs)
	}
}

func TestNilGraphRejected(t *testing.T) {
	if _, err := equitruss.BuildIndex(nil, equitruss.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, _, err := equitruss.BuildSummary(nil, equitruss.Options{}); err == nil {
		t.Fatal("nil graph accepted by BuildSummary")
	}
}

func TestReadEdgeListPublic(t *testing.T) {
	g, err := equitruss.ReadEdgeList(bytes.NewBufferString("0 1\n1 2\n0 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestMaximalKTrussPublic(t *testing.T) {
	g, _ := equitruss.NewGraph([]equitruss.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, // triangle
		{U: 2, V: 3}, // pendant
	}, 0)
	tau := equitruss.Trussness(g, 1)
	t3, err := equitruss.MaximalKTruss(g, tau, 3)
	if err != nil {
		t.Fatal(err)
	}
	if t3.NumEdges() != 3 {
		t.Fatalf("3-truss edges = %d, want 3", t3.NumEdges())
	}
	hist := equitruss.TrussnessHistogram(tau)
	if hist[3] != 3 || hist[2] != 1 {
		t.Fatalf("histogram = %v", hist)
	}
}

func TestIndexStatsAndBatchPublic(t *testing.T) {
	g, err := equitruss.GenerateDataset("amazon", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	var st equitruss.Stats = idx.SG.ComputeStats()
	if st.Supernodes == 0 {
		t.Fatal("no supernodes in dataset index")
	}
	queries := []equitruss.Query{{Vertex: 0, K: 3}, {Vertex: 1, K: 4}}
	out, _ := idx.BatchCommunitiesCtx(nil, queries, 2)
	if len(out) != 2 {
		t.Fatalf("batch results = %d", len(out))
	}
}

func TestDynamicGraphPublic(t *testing.T) {
	dg := equitruss.NewDynamicGraph(4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		if _, err := dg.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if tau, ok := dg.Trussness(0, 1); !ok || tau != 3 {
		t.Fatalf("τ(0,1) = %d, %v", tau, ok)
	}
	dg.DeleteEdge(0, 2)
	if tau, _ := dg.Trussness(0, 1); tau != 2 {
		t.Fatalf("τ(0,1) after break = %d", tau)
	}
	g := equitruss.GenerateRMAT(7, 4, 12)
	dg2 := equitruss.NewDynamicFromGraph(g, 0)
	if dg2.NumEdges() != g.NumEdges() {
		t.Fatalf("import edges = %d, want %d", dg2.NumEdges(), g.NumEdges())
	}
	g2, tau2, err := dg2.ToStatic()
	if err != nil {
		t.Fatal(err)
	}
	want := equitruss.Trussness(g2, 1)
	for i := range want {
		if tau2[i] != want[i] {
			t.Fatalf("exported tau differs at %d", i)
		}
	}
}

func TestEvaluateCommunityPublic(t *testing.T) {
	g, _ := equitruss.NewGraph([]equitruss.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 2, V: 3}, {U: 3, V: 4},
	}, 0)
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal})
	if err != nil {
		t.Fatal(err)
	}
	cs := idx.Communities(0, 3)
	if len(cs) != 1 {
		t.Fatalf("communities = %d", len(cs))
	}
	m := equitruss.EvaluateCommunity(g, cs[0])
	if m.Vertices != 3 || m.Density != 1.0 || m.MinInternalDegree != 2 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestAllCommunitiesPublic(t *testing.T) {
	g, err := equitruss.GenerateDataset("dblp", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		t.Fatal(err)
	}
	all := idx.AllCommunities(3)
	if len(all) == 0 {
		t.Fatal("no k=3 communities in community graph")
	}
	profile := idx.CommunityCount()
	if profile[3] != len(all) {
		t.Fatalf("profile[3] = %d, want %d", profile[3], len(all))
	}
}

func TestTracedBuildEmitsSpans(t *testing.T) {
	g, err := equitruss.GenerateDataset("amazon-sim", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tr := equitruss.NewTracer()
	// Pin a parallel peel kernel so TrussDecomp emits per-thread spans even
	// on a graph small enough for auto to pick the serial bucket queue.
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest, Threads: 4, Tracer: tr, PeelKernel: equitruss.PeelPKT})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Trace != tr {
		t.Fatal("index did not keep its tracer")
	}
	rep := idx.BuildReport()
	// One pipeline-level span per kernel of the Afforest pipeline.
	for _, name := range []string{"Support", "TrussDecomp", "Init", "SpNode", "SpEdge", "SmGraph"} {
		k := rep.Kernel(name)
		if k == nil {
			t.Fatalf("kernel %s missing from report", name)
		}
		if k.Wall <= 0 {
			t.Fatalf("kernel %s has no pipeline wall time", name)
		}
	}
	// Every parallel kernel recorded at least one per-thread span.
	for _, name := range []string{"Support", "TrussDecomp", "SpNode", "SpEdge", "SmGraph"} {
		k := rep.Kernel(name)
		if len(k.Threads) == 0 {
			t.Fatalf("kernel %s has no per-thread spans", name)
		}
		if k.Imbalance < 1.0 {
			t.Fatalf("kernel %s imbalance %f < 1", name, k.Imbalance)
		}
	}
	// The dynamic Support scheduler accounts for every edge exactly once.
	if got := rep.Kernel("Support").Items; got != int64(g.NumEdges()) {
		t.Fatalf("Support items = %d, want %d", got, g.NumEdges())
	}

	// The Chrome trace export must be valid JSON with the expected events.
	var buf bytes.Buffer
	if err := equitruss.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 8 {
		t.Fatalf("only %d trace events", len(doc.TraceEvents))
	}

	// And the Prometheus exposition must carry kernel gauges and counters.
	buf.Reset()
	if err := equitruss.WriteMetrics(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"equitruss_kernel_seconds", "equitruss_kernel_imbalance_ratio", "_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestBuildReportWithoutTracer(t *testing.T) {
	g, err := equitruss.GenerateDataset("amazon-sim", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.COptimal, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := idx.BuildReport()
	// Synthesized from Timings: wall times present, no per-thread rows.
	k := rep.Kernel("SpNode")
	if k == nil || k.Wall <= 0 {
		t.Fatalf("synthesized report lacks SpNode wall time: %+v", k)
	}
	if len(k.Threads) != 0 {
		t.Fatal("untraced build should have no per-thread stats")
	}
}

func TestCountersAccumulate(t *testing.T) {
	equitruss.ResetCounters()
	g, err := equitruss.GenerateDataset("amazon-sim", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the level-synchronous peel kernel: auto may resolve to the serial
	// bucket queue on a graph this small, which runs none of the parallel
	// peel counters this test pins.
	opt := equitruss.Options{Variant: equitruss.Afforest, Threads: 2, PeelKernel: equitruss.PeelLevelSync}
	if _, err := equitruss.BuildIndex(g, opt); err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, c := range equitruss.Counters() {
		vals[c.Name] = c.Value
	}
	// The Afforest pipeline must have moved these counters off zero.
	for _, name := range []string{
		"truss_peel_levels", "truss_support_decrements",
		"spnode_afforest_sample_total", "spedge_emitted", "smgraph_superedges_final",
	} {
		if vals[name] <= 0 {
			t.Fatalf("counter %s = %d after an Afforest build\nall: %v", name, vals[name], vals)
		}
	}
}
