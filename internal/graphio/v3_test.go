package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"equitruss/internal/core"
	"equitruss/internal/faults"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// buildTestIndex builds a real summary graph for serialization tests.
func buildTestIndex(t testing.TB, g *graph.Graph) *core.SummaryGraph {
	t.Helper()
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 1, nil)
	return sg
}

// writeV3Temp writes sg as a v3 file and returns its path and bytes.
func writeV3Temp(t testing.TB, sg *core.SummaryGraph) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.v3")
	if err := WriteBinaryIndexFileV3(path, sg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestV3RoundTripStream(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	var buf bytes.Buffer
	if err := WriteBinaryIndexV3(&buf, sg); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n%v3Align != 0 {
		t.Fatalf("v3 stream length %d not %d-aligned", n, v3Align)
	}
	sg2, err := ReadBinaryIndex(&buf) // auto-detects v3
	if err != nil {
		t.Fatal(err)
	}
	if err := sg2.Validate(g); err != nil {
		t.Fatalf("round-tripped index invalid: %v", err)
	}
	if sg.Canonical(g) != sg2.Canonical(g) {
		t.Fatal("v3 stream round trip changed the index")
	}
}

// TestV3MmapMatchesStream is the load-path differential: the zero-copy
// mmap load (both verify modes) and the portable stream decode must produce
// identical indexes, across several graph shapes including empty and
// near-empty summary graphs.
func TestV3MmapMatchesStream(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"figure3": gen.PaperFigure3(),
		"rmat":    gen.RMAT(8, 6, 0.57, 0.19, 0.19, 7),
		"path":    mustGraph(t, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}), // no triangles: s = 0
		"clique":  gen.Clique(6),
	}
	for name, g := range graphs {
		sg := buildTestIndex(t, g)
		path, _ := writeV3Temp(t, sg)
		streamed, err := ReadBinaryIndexFile(path)
		if err != nil {
			t.Fatalf("%s: stream decode: %v", name, err)
		}
		for _, mode := range []VerifyMode{VerifyEager, VerifyLazy} {
			mapped, m, err := MapIndexFile(path, g.NumEdges(), mode)
			if err != nil {
				t.Fatalf("%s: mmap %v: %v", name, mode, err)
			}
			if mapped.Backing == nil {
				t.Fatalf("%s: mapped index has no Backing", name)
			}
			if got, want := mapped.Canonical(g), streamed.Canonical(g); got != want {
				t.Fatalf("%s: mmap %v load disagrees with stream decode", name, mode)
			}
			if err := mapped.Validate(g); err != nil {
				t.Fatalf("%s: mapped index invalid: %v", name, err)
			}
			if err := waitVerify(m.VerifyErr); err != nil {
				t.Fatalf("%s: %v verify error on clean file: %v", name, mode, err)
			}
		}
	}
}

func mustGraph(t *testing.T, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdgeList(edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// waitVerify gives a lazy background verifier time to finish, returning the
// error it settles on.
func waitVerify(errFn func() error) error {
	var err error
	for i := 0; i < 200; i++ {
		if err = errFn(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return err
}

// TestV3AnyByteFlipDetected is the v3 integrity acceptance criterion:
// flipping ANY single byte of a stored v3 file — header, any of the seven
// sections, any padding run — must make the eager mmap load fail. (Padding
// is not CRC-covered, so the loaders require it zero.)
func TestV3AnyByteFlipDetected(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	dir := t.TempDir()
	_, raw := writeV3Temp(t, sg)
	path := filepath.Join(dir, "flipped.v3")
	for pos := range raw {
		flipped := bytes.Clone(raw)
		flipped[pos] ^= 0xA5
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapIndexFile(path, g.NumEdges(), VerifyEager); err == nil {
			t.Fatalf("eager mmap load accepted a flip at byte %d", pos)
		}
		// The stream decoder must reject the same flip (it may classify a
		// flipped version field as v2/garbage — any error is fine).
		if _, err := ReadBinaryIndex(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("stream decode accepted a flip at byte %d", pos)
		}
	}
}

// TestV3LazyVerifyCatchesSectionFlip proves the deferred verifier finds a
// payload corruption that structural validation alone cannot: a content
// flip that keeps the index well-formed loads under VerifyLazy and then
// surfaces through Mapping.VerifyErr.
func TestV3LazyVerifyCatchesSectionFlip(t *testing.T) {
	g := gen.Clique(6)
	sg := buildTestIndex(t, g)
	_, raw := writeV3Temp(t, sg)
	// Flip a low bit inside the tau section: tau values stay in range, so
	// ValidateLoaded passes and only the CRC knows.
	le := binary.LittleEndian
	tauOff := int64(le.Uint64(raw[48:]))
	flipped := bytes.Clone(raw)
	flipped[tauOff] ^= 0x01
	path := filepath.Join(t.TempDir(), "flipped.v3")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MapIndexFile(path, g.NumEdges(), VerifyEager); err == nil ||
		!strings.Contains(err.Error(), "tau section checksum") {
		t.Fatalf("eager load error = %v, want tau section checksum mismatch", err)
	}
	_, m, err := MapIndexFile(path, g.NumEdges(), VerifyLazy)
	if err != nil {
		t.Fatalf("lazy load rejected a structurally valid flip up front: %v", err)
	}
	if err := waitVerify(m.VerifyErr); err == nil {
		t.Fatal("lazy verifier never surfaced the tau section corruption")
	} else if !strings.Contains(err.Error(), "tau section checksum") {
		t.Fatalf("lazy verify error = %v, want tau section checksum mismatch", err)
	}
}

// TestV3Truncated cuts a v3 file at every interesting boundary; both load
// paths must reject every prefix.
func TestV3Truncated(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	dir := t.TempDir()
	_, raw := writeV3Temp(t, sg)
	cuts := []int{0, 4, 8, v3HeaderCRCOff, v3HeaderSize - 1, v3HeaderSize,
		v3HeaderSize + 1, len(raw)/2 | 1, len(raw) - 1}
	path := filepath.Join(dir, "cut.v3")
	for _, cut := range cuts {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapIndexFile(path, g.NumEdges(), VerifyEager); err == nil {
			t.Fatalf("mmap load accepted a %d-byte prefix of %d", cut, len(raw))
		}
		if _, err := ReadBinaryIndex(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("stream decode accepted a %d-byte prefix of %d", cut, len(raw))
		}
	}
}

// reCRCHeader recomputes the header CRC after a test mutates header fields,
// so the mutation under test is reached instead of failing the CRC check.
func reCRCHeader(raw []byte) {
	binary.LittleEndian.PutUint32(raw[v3HeaderCRCOff:],
		crc32.Checksum(raw[:v3HeaderCRCOff], castagnoli))
}

// TestV3MisalignedOffsetRejected forges a section descriptor pointing off
// the canonical 64-byte grid (with a recomputed header CRC, so only the
// layout check can catch it).
func TestV3MisalignedOffsetRejected(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	_, raw := writeV3Temp(t, sg)
	le := binary.LittleEndian
	for _, delta := range []int64{8, -8, 1, 64} {
		forged := bytes.Clone(raw)
		off := int64(le.Uint64(forged[48:])) + delta
		le.PutUint64(forged[48:], uint64(off))
		reCRCHeader(forged)
		path := filepath.Join(t.TempDir(), "forged.v3")
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapIndexFile(path, g.NumEdges(), VerifyEager); err == nil {
			t.Fatalf("mmap load accepted tau offset shifted by %d", delta)
		} else if !strings.Contains(err.Error(), "canonical layout") &&
			!strings.Contains(err.Error(), "file size") {
			t.Fatalf("offset shifted by %d: error %v does not name the layout", delta, err)
		}
		if _, err := ReadBinaryIndex(bytes.NewReader(forged)); err == nil {
			t.Fatalf("stream decode accepted tau offset shifted by %d", delta)
		}
	}
}

// TestV3BoundarySizesRejected forges size fields at and beyond the int32
// boundary with valid header CRCs: 1<<31 must be rejected as corrupt before
// it can wrap negative in an int32 conversion, and the error must say so.
func TestV3BoundarySizesRejected(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	_, raw := writeV3Temp(t, sg)
	for _, sizeOff := range []int{16, 24, 32, 40} { // m, s, el, al
		forged := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(forged[sizeOff:], 1<<31)
		reCRCHeader(forged)
		if _, err := ReadBinaryIndex(bytes.NewReader(forged)); err == nil ||
			!strings.Contains(err.Error(), "corrupt v3 sizes") {
			t.Fatalf("size field at %d = 1<<31: error %v, want corrupt-size rejection", sizeOff, err)
		}
	}
}

// TestV2BoundarySizesRejected is the satellite regression for the
// strictly-greater bound bug: a v2 header whose size field equals 1<<31
// passed `> 1<<31` and then overflowed int32. The bound is now MaxInt32
// inclusive; 1<<31 must be rejected as corrupt, while a MaxInt32 field
// must survive the size check (failing later, on the stream, instead).
func TestV2BoundarySizesRejected(t *testing.T) {
	mkGraphStream := func(n, m int64, corruptEdgeCRC bool) []byte {
		var buf bytes.Buffer
		cw := &crcWriter{w: &buf}
		for _, h := range []uint32{graphMagic, formatV2} {
			binary.Write(cw, binary.LittleEndian, h)
		}
		binary.Write(cw, binary.LittleEndian, n)
		binary.Write(cw, binary.LittleEndian, m)
		cw.endSection()
		// Empty edge section (m = 0 on the accept side).
		cw.endSection()
		cw.writeTrailer()
		raw := buf.Bytes()
		if corruptEdgeCRC {
			raw[len(raw)-9] ^= 0xFF // edge-section CRC sits before the 8-byte trailer
		}
		return raw
	}
	// n = 1<<31 (and m = 1<<31): must die on the size check.
	for _, hdr := range [][2]int64{{1 << 31, 0}, {0, 1 << 31}, {1 << 31, 1 << 31}} {
		_, err := ReadBinaryGraph(bytes.NewReader(mkGraphStream(hdr[0], hdr[1], false)))
		if err == nil || !strings.Contains(err.Error(), "corrupt header") {
			t.Fatalf("graph n=%d m=%d: error %v, want corrupt-header rejection", hdr[0], hdr[1], err)
		}
	}
	// n = MaxInt32: must pass the size check. The stream's edge-section CRC
	// is corrupted so the read dies there — proving the failure is past the
	// header validation, without allocating a MaxInt32-vertex graph.
	_, err := ReadBinaryGraph(bytes.NewReader(mkGraphStream(int64(1<<31-1), 0, true)))
	if err == nil {
		t.Fatal("corrupt edge CRC accepted")
	}
	if strings.Contains(err.Error(), "corrupt header") {
		t.Fatalf("n=MaxInt32 rejected by the size check: %v", err)
	}

	// Index reader: any of the four size fields at 1<<31 must be corrupt.
	for field := 0; field < 4; field++ {
		var buf bytes.Buffer
		cw := &crcWriter{w: &buf}
		for _, h := range []uint32{indexMagic, formatV2} {
			binary.Write(cw, binary.LittleEndian, h)
		}
		sizes := make([]int64, 4)
		sizes[field] = 1 << 31
		binary.Write(cw, binary.LittleEndian, sizes)
		cw.endSection()
		_, err := ReadBinaryIndex(bytes.NewReader(buf.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "corrupt index sizes") {
			t.Fatalf("index size field %d = 1<<31: error %v, want corrupt-sizes rejection", field, err)
		}
	}
}

// TestWriteEdgeListErrorPropagation is the satellite regression for the
// dropped per-line write errors: a failure must surface from WriteEdgeList
// (not be swallowed until a final flush), and WriteEdgeListFile must wrap
// it with the destination path on both plain and gzip paths.
func TestWriteEdgeListErrorPropagation(t *testing.T) {
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 3)
	// A writer that fails immediately: the error must come back through
	// the buffered per-line writes, not vanish.
	if err := WriteEdgeList(failWriter{}, g); err == nil {
		t.Fatal("WriteEdgeList swallowed the write error")
	}
	for _, name := range []string{"out.txt", "out.txt.gz"} {
		path := filepath.Join(t.TempDir(), name)
		faults.Enable(11)
		faults.Set(siteWrite, faults.Plan{Action: faults.Error, Every: 1})
		err := WriteEdgeListFile(path, g)
		faults.Disable()
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s: err = %v, want the injected fault", name, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: error %q does not name the destination path", name, err)
		}
		// And with the fault disarmed the same write must succeed and read
		// back (the gz leg exercises the compressor's Close-flush path).
		if err := WriteEdgeListFile(path, g); err != nil {
			t.Fatalf("%s: clean write failed: %v", name, err)
		}
		g2, err := ReadEdgeListFile(path)
		if err != nil {
			t.Fatalf("%s: read back: %v", name, err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: %d edges read back, want %d", name, g2.NumEdges(), g.NumEdges())
		}
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink failed") }

// TestSniffIndexFormat checks version detection on real files of both
// layouts.
func TestSniffIndexFormat(t *testing.T) {
	g := gen.PaperFigure3()
	sg := buildTestIndex(t, g)
	dir := t.TempDir()
	v2 := filepath.Join(dir, "i.v2")
	if err := WriteBinaryIndexFile(v2, sg); err != nil {
		t.Fatal(err)
	}
	v3 := filepath.Join(dir, "i.v3")
	if err := WriteBinaryIndexFileV3(v3, sg); err != nil {
		t.Fatal(err)
	}
	if f, err := SniffIndexFormat(v2); err != nil || f != FormatV2 {
		t.Fatalf("sniff v2 = %v, %v", f, err)
	}
	if f, err := SniffIndexFormat(v3); err != nil || f != FormatV3 {
		t.Fatalf("sniff v3 = %v, %v", f, err)
	}
	if _, err := SniffIndexFormat(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("sniff accepted a missing file")
	}
}

func TestParseFlagHelpers(t *testing.T) {
	if FormatV3.String() != "v3" || FormatV2.String() != "v2" {
		t.Fatalf("format names = %v, %v", FormatV3, FormatV2)
	}
	if m, err := ParseVerifyMode("lazy"); err != nil || m != VerifyLazy || m.String() != "lazy" {
		t.Fatalf("ParseVerifyMode lazy = %v, %v", m, err)
	}
	if m, err := ParseVerifyMode("eager"); err != nil || m != VerifyEager || m.String() != "eager" {
		t.Fatalf("ParseVerifyMode eager = %v, %v", m, err)
	}
	if _, err := ParseVerifyMode("never"); err == nil {
		t.Fatal("ParseVerifyMode accepted never")
	}
}
