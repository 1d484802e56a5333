// Package graphio reads and writes graphs and indexes: SNAP-style
// whitespace-separated edge-list text (the format of the paper's datasets)
// and checksummed little-endian binary formats for summary graphs (v2
// stream, v3 flat/mmap) and live snapshots, so built indexes can be cached
// between runs.
package graphio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"equitruss/internal/core"
	"equitruss/internal/graph"
)

// maxLine bounds one edge-list line, its newline included.
const maxLine = 1 << 20

// ReadEdgeList parses SNAP-style text: one "u v" pair per line, '#' or '%'
// comment lines ignored, fields after the second ignored, duplicate edges
// and self-loops tolerated (the CSR builder removes them). Lines split on
// '\n'; fields split on Unicode white space, so CRLF and tabs are fine.
// Vertex IDs are base-10 int32 values with an optional sign and must not be
// negative. Errors name the 1-based line; a line of maxLine bytes or more
// fails with bufio.ErrTooLong. Lines are parsed in place in the read buffer.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	edges, err := parseEdgeList(r)
	if err != nil {
		return nil, err
	}
	return graph.FromEdgeList(edges, 0)
}

// parseEdgeList is ReadEdgeList's parser: it returns the edges as read.
func parseEdgeList(r io.Reader) ([]graph.Edge, error) {
	br := bufio.NewReaderSize(r, maxLine)
	var edges []graph.Edge
	for line := 1; ; line++ {
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("graphio: scan: %w", bufio.ErrTooLong)
		}
		if len(raw) > 0 {
			var perr error
			if edges, perr = appendEdge(edges, raw, line); perr != nil {
				return nil, perr
			}
		}
		if err == io.EOF {
			return edges, nil
		}
		if err != nil {
			return nil, fmt.Errorf("graphio: scan: %w", err)
		}
	}
}

// appendEdge parses one line and appends its edge; blank and comment lines
// append nothing.
func appendEdge(edges []graph.Edge, raw []byte, line int) ([]graph.Edge, error) {
	text := bytes.TrimSpace(raw)
	if len(text) == 0 || text[0] == '#' || text[0] == '%' {
		return edges, nil
	}
	f0, rest := cutField(text)
	f1, _ := cutField(bytes.TrimLeftFunc(rest, unicode.IsSpace))
	if len(f1) == 0 {
		return nil, fmt.Errorf("graphio: line %d: want 'u v', got %q", line, text)
	}
	u, err := parseVertex(f0)
	if err != nil {
		return nil, fmt.Errorf("graphio: line %d: bad vertex %q: %v", line, f0, err)
	}
	v, err := parseVertex(f1)
	if err != nil {
		return nil, fmt.Errorf("graphio: line %d: bad vertex %q: %v", line, f1, err)
	}
	if u < 0 || v < 0 {
		return nil, fmt.Errorf("graphio: line %d: negative vertex id in %q", line, text)
	}
	return append(edges, graph.Edge{U: u, V: v}), nil
}

// cutField splits b before its first white-space rune.
func cutField(b []byte) (field, rest []byte) {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c == ' ' || c-'\t' <= '\r'-'\t' {
				return b[:i], b[i:]
			}
			i++
			continue
		}
		r, w := utf8.DecodeRune(b[i:])
		if unicode.IsSpace(r) {
			return b[:i], b[i:]
		}
		i += w
	}
	return b, nil
}

// parseVertex parses a field exactly as strconv.ParseInt(f, 10, 32) does,
// without allocating; a field it rejects goes to strconv for the error.
func parseVertex(f []byte) (int32, error) {
	d, neg := f, false
	if len(d) > 0 && (d[0] == '+' || d[0] == '-') {
		d, neg = d[1:], d[0] == '-'
	}
	limit := int64(math.MaxInt32)
	if neg {
		limit++
	}
	var v int64
	ok := len(d) > 0
	for _, c := range d {
		if c < '0' || c > '9' || v > limit {
			ok = false
			break
		}
		v = v*10 + int64(c-'0')
	}
	if !ok || v > limit {
		n, err := strconv.ParseInt(string(f), 10, 32)
		return int32(n), err
	}
	if neg {
		v = -v
	}
	return int32(v), nil
}

// ReadEdgeListFile opens and parses an edge-list file. Files ending in
// ".gz" are decompressed transparently (SNAP's distribution format).
func ReadEdgeListFile(path string) (*graph.Graph, error) {
	f, err := openMaybeGzip(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes the graph as SNAP-style text with a header comment.
// Write errors are detected per line, not deferred to the final flush, so a
// full disk or broken pipe stops the loop instead of formatting millions of
// lines into a dead writer.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	if err := injectWrite(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# undirected graph: %d vertices, %d edges\n",
		g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile writes the graph to a file, gzip-compressed when the
// path ends in ".gz". On gzip paths the final Close flushes the compressor,
// so a short write surfacing only there is still reported (wrapped with the
// path), not swallowed.
func WriteEdgeListFile(path string, g *graph.Graph) error {
	f, err := createMaybeGzip(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return fmt.Errorf("graphio: writing edge list %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("graphio: closing edge list %s: %w", path, err)
	}
	return nil
}

const (
	indexMagic = uint32(0x45515449) // "EQTI"

	// maxSaneCount bounds any size field read from an untrusted stream
	// before it drives an allocation: vertex and edge IDs are int32, so any
	// count a valid file can carry is at most MaxInt32 — the bound must be
	// inclusive-safe, because a field equal to 1<<31 would survive a
	// strictly-greater check and then wrap negative in an int32 conversion.
	maxSaneCount = int64(math.MaxInt32)
)

// readSlice reads n fixed-size elements in bounded chunks, so a corrupt
// header claiming billions of entries makes the read fail when the stream
// runs dry instead of driving one giant up-front allocation.
func readSlice[T any](r io.Reader, n int64) ([]T, error) {
	var zero T
	elem := int64(binary.Size(zero))
	chunk := (int64(1) << 22) / elem // ≤ 4 MiB per read
	out := make([]T, 0, min(n, chunk))
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), chunk)
		buf := make([]T, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// indexSectionNames label the seven array sections of the index format,
// in stream order, for checksum-mismatch error messages.
var indexSectionNames = [...]string{
	"tau", "edge-to-supernode", "supernode-k", "edge-list", "adjacency",
	"edge-offsets", "adjacency-offsets",
}

// WriteBinaryIndex serializes a summary graph (current version: v2, with
// CRC32C section checksums and a whole-file trailer — see checksum.go).
func WriteBinaryIndex(w io.Writer, sg *core.SummaryGraph) error {
	if err := injectWrite(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	// Header section: magic, version, sizes, then the header CRC.
	for _, h := range []uint32{indexMagic, formatV2} {
		if err := binary.Write(cw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	sizes := []int64{
		int64(len(sg.Tau)), int64(len(sg.K)),
		int64(len(sg.EdgeList)), int64(len(sg.Adj)),
	}
	if err := binary.Write(cw, binary.LittleEndian, sizes); err != nil {
		return err
	}
	if err := cw.endSection(); err != nil {
		return err
	}
	// One checksummed section per array.
	for _, arr := range [][]int32{sg.Tau, sg.EdgeToSN, sg.K, sg.EdgeList, sg.Adj} {
		if err := binary.Write(cw, binary.LittleEndian, arr); err != nil {
			return err
		}
		if err := cw.endSection(); err != nil {
			return err
		}
	}
	for _, arr := range [][]int64{sg.EdgeOffsets, sg.AdjOffsets} {
		if err := binary.Write(cw, binary.LittleEndian, arr); err != nil {
			return err
		}
		if err := cw.endSection(); err != nil {
			return err
		}
	}
	if err := cw.writeTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinaryIndex deserializes a summary graph written by either index
// writer: the flat v3 layout and the checksummed v2 stream are
// auto-detected from the first eight bytes, and any other version —
// including the checksum-less legacy v1 — is rejected. The header checksum is verified before any size field drives an allocation
// and every section checksum as its payload is decoded — any single flipped
// byte in a stored stream is rejected with a checksum error. This is the
// portable heap-decoding path; use MapIndexFile for the zero-copy v3 load.
func ReadBinaryIndex(r io.Reader) (*core.SummaryGraph, error) {
	if err := injectRead(); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	// Sniff the version without consuming: v3 has its own fixed-header
	// decoder; v2 re-reads these bytes through the CRC accumulator.
	if head, err := br.Peek(8); err == nil &&
		binary.LittleEndian.Uint32(head) == indexMagic &&
		binary.LittleEndian.Uint32(head[4:]) == formatV3 {
		return readBinaryIndexV3(br)
	}
	cr := &crcReader{r: br}
	var magic, version uint32
	if err := binary.Read(cr, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("graphio: bad index magic %#x", magic)
	}
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != formatV2 {
		return nil, fmt.Errorf("graphio: unsupported index format version %d", version)
	}
	sizes := make([]int64, 4)
	if err := binary.Read(cr, binary.LittleEndian, sizes); err != nil {
		return nil, err
	}
	if err := cr.endSection("index header"); err != nil {
		return nil, err
	}
	m, s, el, al := sizes[0], sizes[1], sizes[2], sizes[3]
	for _, sz := range sizes {
		if sz < 0 || sz > maxSaneCount {
			return nil, fmt.Errorf("graphio: corrupt index sizes %v", sizes)
		}
	}
	sg := &core.SummaryGraph{}
	section := 0
	endSection := func() error {
		name := indexSectionNames[section]
		section++
		return cr.endSection(name + " section")
	}
	var err error
	if sg.Tau, err = readSlice[int32](cr, m); err != nil {
		return nil, err
	}
	if err := endSection(); err != nil {
		return nil, err
	}
	if sg.EdgeToSN, err = readSlice[int32](cr, m); err != nil {
		return nil, err
	}
	if err := endSection(); err != nil {
		return nil, err
	}
	if sg.K, err = readSlice[int32](cr, s); err != nil {
		return nil, err
	}
	if err := endSection(); err != nil {
		return nil, err
	}
	if sg.EdgeList, err = readSlice[int32](cr, el); err != nil {
		return nil, err
	}
	if err := endSection(); err != nil {
		return nil, err
	}
	if sg.Adj, err = readSlice[int32](cr, al); err != nil {
		return nil, err
	}
	if err := endSection(); err != nil {
		return nil, err
	}
	if sg.EdgeOffsets, err = readSlice[int64](cr, s+1); err != nil {
		return nil, err
	}
	if err := endSection(); err != nil {
		return nil, err
	}
	if sg.AdjOffsets, err = readSlice[int64](cr, s+1); err != nil {
		return nil, err
	}
	if err := endSection(); err != nil {
		return nil, err
	}
	if err := cr.checkTrailer(); err != nil {
		return nil, err
	}
	// The stream decoded, but nothing above guarantees the IDs inside make
	// sense: a corrupt or mismatched index with out-of-range member edges,
	// superedge endpoints, or broken CSR offsets would panic at query time.
	// Reject it here with a descriptive error instead.
	if err := sg.ValidateLoaded(); err != nil {
		return nil, fmt.Errorf("graphio: corrupt index: %w", err)
	}
	return sg, nil
}
