package graphio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment line
% another comment
0 1
1 2
2 0

3 4 extra-column-ignored
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("got %v, want V=5 E=4", g)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(3, 4) {
		t.Fatal("edges missing")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                // too few fields
		"a b\n",              // non-numeric u
		"0 b\n",              // non-numeric v
		"0 99999999999999\n", // overflow
		"-1 5\n",             // negative u
		"5 -1\n",             // negative v
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadEdgeListNegativeVertexNamesLine(t *testing.T) {
	// The error must point at the offending line like the other parse
	// errors, not surface later from deep inside the CSR builder.
	_, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n2 -7\n"))
	if err == nil {
		t.Fatal("negative vertex accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name line 3", err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 77)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex count can shrink if trailing vertices are isolated; edges
	// must match exactly.
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if g.Edge(e) != g2.Edge(e) {
			t.Fatalf("edge %d differs", e)
		}
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := gen.PaperFigure3()
	if err := WriteEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	if _, err := ReadEdgeListFile(filepath.Join(dir, "missing.txt")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v", err)
	}
}

func TestBinaryGraphRoundTrip(t *testing.T) {
	g := gen.PlantedPartition(5, 8, 0.7, 1.0, 78)
	var buf bytes.Buffer
	if err := WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinaryGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape: %v vs %v", g2, g)
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if g.Edge(e) != g2.Edge(e) {
			t.Fatalf("edge %d differs", e)
		}
	}
}

func TestBinaryGraphBadMagic(t *testing.T) {
	if _, err := ReadBinaryGraph(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinaryGraph(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestBinaryIndexRoundTrip(t *testing.T) {
	g := gen.PaperFigure3()
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 2, nil)

	var buf bytes.Buffer
	if err := WriteBinaryIndex(&buf, sg); err != nil {
		t.Fatal(err)
	}
	sg2, err := ReadBinaryIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sg2.Validate(g); err != nil {
		t.Fatalf("round-tripped index invalid: %v", err)
	}
	if sg.Canonical(g) != sg2.Canonical(g) {
		t.Fatal("round trip changed the index")
	}
}

func TestBinaryIndexBadInput(t *testing.T) {
	if _, err := ReadBinaryIndex(bytes.NewReader([]byte{0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Fatal("garbage index accepted")
	}
	// Graph magic fed to index reader must fail.
	var buf bytes.Buffer
	g := gen.Clique(3)
	if err := WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinaryIndex(&buf); err == nil {
		t.Fatal("graph blob accepted as index")
	}
}

// TestBinaryIndexCorruptIDs serializes structurally broken summary graphs
// (the writer emits whatever it is handed) and checks the reader rejects
// each with a descriptive error instead of handing queries a live grenade.
func TestBinaryIndexCorruptIDs(t *testing.T) {
	base := func() *core.SummaryGraph {
		g := gen.Clique(5)
		sup := triangle.Supports(g, 1)
		tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
		sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 1, nil)
		return sg
	}
	cases := []struct {
		name    string
		corrupt func(sg *core.SummaryGraph)
	}{
		{"edgelist out of range", func(sg *core.SummaryGraph) {
			sg.EdgeList[0] = int32(len(sg.Tau)) + 5
		}},
		{"edgelist negative", func(sg *core.SummaryGraph) {
			sg.EdgeList[0] = -2
		}},
		{"adj out of range", func(sg *core.SummaryGraph) {
			sg.Adj = append(sg.Adj, sg.NumSupernodes()+3)
			sg.AdjOffsets[len(sg.AdjOffsets)-1]++
		}},
		{"edgetosn out of range", func(sg *core.SummaryGraph) {
			sg.EdgeToSN[0] = sg.NumSupernodes() + 1
		}},
		{"edge offsets decrease", func(sg *core.SummaryGraph) {
			sg.EdgeOffsets[1] = -1
		}},
		{"edge offsets overrun payload", func(sg *core.SummaryGraph) {
			sg.EdgeOffsets[len(sg.EdgeOffsets)-1] += 4
		}},
		{"adj offsets start nonzero", func(sg *core.SummaryGraph) {
			for i := range sg.AdjOffsets {
				sg.AdjOffsets[i]++
			}
		}},
		{"supernode k below minimum", func(sg *core.SummaryGraph) {
			sg.K[0] = 1
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sg := base()
			c.corrupt(sg)
			var buf bytes.Buffer
			if err := WriteBinaryIndex(&buf, sg); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadBinaryIndex(&buf); err == nil {
				t.Fatalf("corrupt index (%s) accepted", c.name)
			} else if !strings.Contains(err.Error(), "corrupt index") {
				t.Fatalf("error %q not descriptive", err)
			}
		})
	}
}

func TestBinaryIndexTruncated(t *testing.T) {
	g := gen.Clique(4)
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 1, nil)
	var buf bytes.Buffer
	if err := WriteBinaryIndex(&buf, sg); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 8, 20, len(full) - 3} {
		if _, err := ReadBinaryIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBigScannerLine(t *testing.T) {
	// Very long comment lines must not break the scanner buffer.
	long := "# " + strings.Repeat("x", 1<<18) + "\n0 1\n"
	g, err := ReadEdgeList(strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

var _ = graph.Edge{} // keep the import used if assertions above change

func TestWriteSummaryDOT(t *testing.T) {
	g := gen.PaperFigure3()
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 2, nil)
	var buf bytes.Buffer
	if err := WriteSummaryDOT(&buf, sg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "graph equitruss {") {
		t.Fatalf("missing header:\n%s", out)
	}
	if c := strings.Count(out, " -- "); c != 6 {
		t.Fatalf("DOT superedges = %d, want 6", c)
	}
	if c := strings.Count(out, "[label=\"ν"); c != 5 {
		t.Fatalf("DOT supernodes = %d, want 5", c)
	}
}

func TestWriteGraphDOT(t *testing.T) {
	g := gen.Clique(3)
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	var buf bytes.Buffer
	if err := WriteGraphDOT(&buf, g, tau); err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(buf.String(), `[label="3"]`); c != 3 {
		t.Fatalf("labelled edges = %d, want 3:\n%s", c, buf.String())
	}
	buf.Reset()
	if err := WriteGraphDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "label") {
		t.Fatal("labels emitted without tau")
	}
}

func TestGzipEdgeListRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt.gz")
	g := gen.PlantedPartition(4, 6, 0.8, 1.0, 91)
	if err := WriteEdgeListFile(path, g); err != nil {
		t.Fatal(err)
	}
	// The file must actually be gzip (magic bytes 0x1f 0x8b).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("output not gzip-compressed")
	}
	g2, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	// A non-gzip file with a .gz name must fail cleanly.
	bad := filepath.Join(dir, "bad.gz")
	if err := os.WriteFile(bad, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEdgeListFile(bad); err == nil {
		t.Fatal("plain text with .gz name accepted")
	}
}
