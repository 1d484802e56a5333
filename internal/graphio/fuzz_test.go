package graphio

import (
	"bytes"
	"strings"
	"testing"

	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// FuzzReadEdgeList feeds arbitrary text to the edge-list parser: it must
// never panic, and any successfully parsed graph must round-trip through
// the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n\n3 4 junk\n")
	f.Add("a b\n")
	f.Add("-1 5\n")
	f.Add("99999999999 1\n")
	f.Add("0 1 2 3 4\n1\t2\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read of written graph: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edges: %d vs %d", g2.NumEdges(), g.NumEdges())
		}
	})
}

// FuzzReadBinaryIndex throws mutated bytes at the binary index reader: it
// must reject or succeed without panicking or huge allocations, and any
// accepted index must be safe to traverse — the reader's structural
// validation is what stands between untrusted bytes and a panic deep
// inside a community query.
func FuzzReadBinaryIndex(f *testing.F) {
	f.Add([]byte{0x49, 0x54, 0x51, 0x45, 1, 0, 0, 0})
	f.Add([]byte("garbage"))
	// Seed with real serialized indexes so the mutator explores the
	// accepted formats' neighborhoods, not just broken headers: the current
	// v2 stream, the legacy v1 stream, and v2 streams with a flipped byte
	// inside each checksum field (header CRC, a section CRC, the trailer's
	// file CRC) — the paths where the reader must reject via checksum
	// verification rather than structural validation.
	{
		g := gen.PaperFigure3()
		sup := triangle.Supports(g, 1)
		tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
		sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 1, nil)
		var buf bytes.Buffer
		if err := WriteBinaryIndex(&buf, sg); err != nil {
			f.Fatal(err)
		}
		v2 := buf.Bytes()
		f.Add(bytes.Clone(v2))
		// Header CRC field sits right after magic+version (8) + sizes (32).
		for _, pos := range []int{40, 44, len(v2) - 1, len(v2) - 5} {
			flipped := bytes.Clone(v2)
			flipped[pos] ^= 0xA5
			f.Add(flipped)
		}
		var v1 bytes.Buffer
		if err := writeBinaryIndexV1(&v1, sg); err != nil {
			f.Fatal(err)
		}
		f.Add(v1.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against absurd size prefixes exploding allocations: the
		// reader validates sizes against negativity; cap input length so
		// even accepted sizes stay bounded by the stream.
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		sg, err := ReadBinaryIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: every traversal a query performs must stay in bounds.
		for s := int32(0); s < sg.NumSupernodes(); s++ {
			for _, e := range sg.SupernodeEdges(s) {
				_ = sg.Tau[e]
			}
			for _, nb := range sg.SupernodeNeighbors(s) {
				_ = sg.K[nb]
			}
		}
		for _, sn := range sg.EdgeToSN {
			if sn != core.NoSupernode {
				_ = sg.K[sn]
			}
		}
		// And it must survive a write/read round trip unchanged in shape.
		var buf bytes.Buffer
		if err := WriteBinaryIndex(&buf, sg); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		sg2, err := ReadBinaryIndex(&buf)
		if err != nil {
			t.Fatalf("re-read of written index: %v", err)
		}
		if sg2.NumSupernodes() != sg.NumSupernodes() || len(sg2.Tau) != len(sg.Tau) {
			t.Fatalf("round trip changed shape: %v vs %v", sg2, sg)
		}
	})
}

// FuzzReadV3Index throws mutated bytes at the v3 stream decoder: like
// FuzzReadBinaryIndex, it must reject or accept without panicking, and an
// accepted index must be traversal-safe. Seeded from a real v3 file plus
// variants with a byte flipped in the header CRC, a section CRC slot, the
// payload, and the padding — the regions the decoder rejects through
// different checks (header CRC, section CRC, zero-padding).
func FuzzReadV3Index(f *testing.F) {
	g := gen.PaperFigure3()
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 1, nil)
	var buf bytes.Buffer
	if err := WriteBinaryIndexV3(&buf, sg); err != nil {
		f.Fatal(err)
	}
	v3 := buf.Bytes()
	f.Add(bytes.Clone(v3))
	for _, pos := range []int{0, 4, 16, 48, v3HeaderCRCOff, 240, v3HeaderSize,
		v3HeaderSize + 60, len(v3) - 1} {
		flipped := bytes.Clone(v3)
		flipped[pos] ^= 0xA5
		f.Add(flipped)
	}
	f.Add(v3[:v3HeaderSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		sg, err := ReadBinaryIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		for s := int32(0); s < sg.NumSupernodes(); s++ {
			for _, e := range sg.SupernodeEdges(s) {
				_ = sg.Tau[e]
			}
			for _, nb := range sg.SupernodeNeighbors(s) {
				_ = sg.K[nb]
			}
		}
		// An accepted v3 stream must round-trip through the v3 writer.
		var buf bytes.Buffer
		if err := WriteBinaryIndexV3(&buf, sg); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		sg2, err := ReadBinaryIndex(&buf)
		if err != nil {
			t.Fatalf("re-read of written index: %v", err)
		}
		if sg2.NumSupernodes() != sg.NumSupernodes() || len(sg2.Tau) != len(sg.Tau) {
			t.Fatalf("round trip changed shape: %v vs %v", sg2, sg)
		}
	})
}
