package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"equitruss/internal/core"
	"equitruss/internal/mmapio"
	"equitruss/internal/obs"
)

// Format v3 is a flat, offset-addressed layout built for zero-copy loading:
// instead of a chunked stream that must be decoded into fresh heap arrays,
// the seven index arrays are stored as raw little-endian images at 64-byte-
// aligned absolute offsets, so a loader can mmap the file and reinterpret
// the mapped sections as the arrays directly — no decode, no copy, ~0 heap.
//
//	header (256 bytes, CRC32C-protected):
//	  [0]   magic "EQTI"            u32
//	  [4]   version = 3             u32
//	  [8]   flags = 0               u32
//	  [12]  section count = 7       u32
//	  [16]  m  (edges)              i64
//	  [24]  s  (supernodes)         i64
//	  [32]  el (member-edge list)   i64
//	  [40]  al (adjacency list)     i64
//	  [48]  7 section descriptors:  {offset i64, count i64, crc u32, elemSize u32}
//	  [216] file size               i64
//	  [224] header CRC32C of [0,224)
//	  [228] zero padding to 256
//
// Sections follow in the fixed order tau, edge-to-supernode, supernode-k,
// edge-list, adjacency, edge-offsets, adjacency-offsets; each starts at the
// next 64-byte boundary and is zero-padded to the next one, so every array
// lands cache-line-aligned in the mapping (and the int64 offset arrays are
// 8-aligned wherever the file is loaded). Per-section CRC32C lives in the
// header, verified eagerly at load or deferred to a background pass
// (VerifyLazy). The layout is little-endian only: big-endian hosts fall
// back to the streaming decoder, which works everywhere.

const (
	formatV3       = uint32(3)
	v3Align        = 64
	v3SectionCount = 7
	v3HeaderSize   = 256
	v3HeaderCRCOff = 224
)

var (
	cMmapLoads = obs.GetCounter("graphio_mmap_loads",
		"v3 index files loaded zero-copy via mmap")
	cLazyVerifyFailures = obs.GetCounter("graphio_lazy_verify_failures",
		"deferred v3 section-checksum verifications that found corruption")
)

// VerifyMode selects when a v3 mmap load verifies section checksums.
type VerifyMode int

const (
	// VerifyEager checks every section CRC before the load returns — a
	// flipped byte anywhere is rejected up front, at the cost of one pass
	// over the file.
	VerifyEager VerifyMode = iota
	// VerifyLazy checks only the header CRC up front and verifies section
	// CRCs in a background goroutine; serving starts immediately, and a
	// corruption found later surfaces through Mapping.VerifyErr and the
	// graphio_lazy_verify_failures counter.
	VerifyLazy
)

// ParseVerifyMode parses a -verify flag value (eager|lazy).
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch s {
	case "eager":
		return VerifyEager, nil
	case "lazy":
		return VerifyLazy, nil
	}
	return 0, fmt.Errorf("graphio: unknown verify mode %q (want eager|lazy)", s)
}

func (v VerifyMode) String() string {
	if v == VerifyLazy {
		return "lazy"
	}
	return "eager"
}

// IndexFormat names an on-disk index layout (see SniffIndexFormat).
type IndexFormat int

const (
	// FormatV2 is the chunked checksummed stream: portable, decoded into
	// heap arrays at load.
	FormatV2 IndexFormat = 2
	// FormatV3 is the flat 64-byte-aligned layout servable zero-copy via
	// mmap.
	FormatV3 IndexFormat = 3
)

func (f IndexFormat) String() string {
	if f == FormatV2 {
		return "v2"
	}
	return "v3"
}

// v3Section is one parsed section descriptor.
type v3Section struct {
	off      int64
	count    int64
	crc      uint32
	elemSize uint32
}

// v3Header is the parsed, validated v3 header.
type v3Header struct {
	m, s, el, al int64
	fileSize     int64
	secs         [v3SectionCount]v3Section
}

// v3Pad rounds n up to the section alignment.
func v3Pad(n int64) int64 { return (n + v3Align - 1) &^ (v3Align - 1) }

// v3SectionBytes returns the seven sections' little-endian byte images in
// stream order (zero-copy on LE hosts), with their element sizes.
func v3SectionBytes(sg *core.SummaryGraph) ([v3SectionCount][]byte, [v3SectionCount]uint32) {
	var secs [v3SectionCount][]byte
	var elem [v3SectionCount]uint32
	for i, a := range [][]int32{sg.Tau, sg.EdgeToSN, sg.K, sg.EdgeList, sg.Adj} {
		secs[i] = mmapio.Int32Bytes(a)
		elem[i] = 4
	}
	for i, a := range [][]int64{sg.EdgeOffsets, sg.AdjOffsets} {
		secs[5+i] = mmapio.Int64Bytes(a)
		elem[5+i] = 8
	}
	return secs, elem
}

// v3Counts returns the expected element count of every section given the
// four size fields.
func v3Counts(m, s, el, al int64) [v3SectionCount]int64 {
	return [v3SectionCount]int64{m, m, s, el, al, s + 1, s + 1}
}

// WriteBinaryIndexV3 serializes a summary graph in the flat v3 layout.
func WriteBinaryIndexV3(w io.Writer, sg *core.SummaryGraph) error {
	if err := injectWrite(); err != nil {
		return err
	}
	secs, elem := v3SectionBytes(sg)
	hdr := make([]byte, v3HeaderSize)
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], indexMagic)
	le.PutUint32(hdr[4:], formatV3)
	le.PutUint32(hdr[8:], 0) // flags
	le.PutUint32(hdr[12:], v3SectionCount)
	sizes := []int64{int64(len(sg.Tau)), int64(len(sg.K)), int64(len(sg.EdgeList)), int64(len(sg.Adj))}
	for i, sz := range sizes {
		le.PutUint64(hdr[16+8*i:], uint64(sz))
	}
	off := int64(v3HeaderSize)
	for i, sec := range secs {
		d := hdr[48+24*i:]
		le.PutUint64(d[0:], uint64(off))
		le.PutUint64(d[8:], uint64(len(sec))/uint64(elem[i]))
		le.PutUint32(d[16:], crc32.Checksum(sec, castagnoli))
		le.PutUint32(d[20:], elem[i])
		off = v3Pad(off + int64(len(sec)))
	}
	le.PutUint64(hdr[216:], uint64(off)) // file size
	le.PutUint32(hdr[v3HeaderCRCOff:], crc32.Checksum(hdr[:v3HeaderCRCOff], castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("graphio: writing v3 header: %w", err)
	}
	var pad [v3Align]byte
	for i, sec := range secs {
		if _, err := w.Write(sec); err != nil {
			return fmt.Errorf("graphio: writing %s section: %w", indexSectionNames[i], err)
		}
		if tail := v3Pad(int64(len(sec))) - int64(len(sec)); tail > 0 {
			if _, err := w.Write(pad[:tail]); err != nil {
				return fmt.Errorf("graphio: padding %s section: %w", indexSectionNames[i], err)
			}
		}
	}
	return nil
}

// WriteBinaryIndexFileV3 atomically writes a summary graph to path in the
// flat v3 layout (see AtomicWriteFile for the crash-safety contract).
func WriteBinaryIndexFileV3(path string, sg *core.SummaryGraph) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		return WriteBinaryIndexV3(w, sg)
	})
}

// parseV3Header validates a v3 header image: magic, version, header CRC,
// sane sizes, and — against the sizes — that every section descriptor
// carries the expected element size and count and sits exactly at its
// canonical 64-byte-aligned offset. A descriptor pointing anywhere else
// (overlapping, misaligned, out of bounds) is rejected here, before any
// offset is dereferenced or any allocation sized from it.
func parseV3Header(hdr []byte) (*v3Header, error) {
	le := binary.LittleEndian
	if got := le.Uint32(hdr[0:]); got != indexMagic {
		return nil, fmt.Errorf("graphio: bad index magic %#x", got)
	}
	if got := le.Uint32(hdr[4:]); got != formatV3 {
		return nil, fmt.Errorf("graphio: bad v3 version %d", got)
	}
	if got := crc32.Checksum(hdr[:v3HeaderCRCOff], castagnoli); got != le.Uint32(hdr[v3HeaderCRCOff:]) {
		return nil, fmt.Errorf("graphio: v3 header checksum mismatch: computed %#x, stored %#x",
			got, le.Uint32(hdr[v3HeaderCRCOff:]))
	}
	if flags := le.Uint32(hdr[8:]); flags != 0 {
		return nil, fmt.Errorf("graphio: unsupported v3 flags %#x", flags)
	}
	if n := le.Uint32(hdr[12:]); n != v3SectionCount {
		return nil, fmt.Errorf("graphio: v3 header has %d sections, want %d", n, v3SectionCount)
	}
	h := &v3Header{
		m:  int64(le.Uint64(hdr[16:])),
		s:  int64(le.Uint64(hdr[24:])),
		el: int64(le.Uint64(hdr[32:])),
		al: int64(le.Uint64(hdr[40:])),
	}
	for _, sz := range []int64{h.m, h.s, h.el, h.al} {
		if sz < 0 || sz > maxSaneCount {
			return nil, fmt.Errorf("graphio: corrupt v3 sizes m=%d s=%d el=%d al=%d", h.m, h.s, h.el, h.al)
		}
	}
	h.fileSize = int64(le.Uint64(hdr[216:]))
	counts := v3Counts(h.m, h.s, h.el, h.al)
	wantOff := int64(v3HeaderSize)
	for i := range h.secs {
		d := hdr[48+24*i:]
		sec := v3Section{
			off:      int64(le.Uint64(d[0:])),
			count:    int64(le.Uint64(d[8:])),
			crc:      le.Uint32(d[16:]),
			elemSize: le.Uint32(d[20:]),
		}
		wantElem := uint32(4)
		if i >= 5 {
			wantElem = 8
		}
		if sec.elemSize != wantElem {
			return nil, fmt.Errorf("graphio: %s section element size %d, want %d",
				indexSectionNames[i], sec.elemSize, wantElem)
		}
		if sec.count != counts[i] {
			return nil, fmt.Errorf("graphio: %s section has %d elements, header sizes imply %d",
				indexSectionNames[i], sec.count, counts[i])
		}
		if sec.off != wantOff {
			return nil, fmt.Errorf("graphio: %s section at offset %d, canonical layout puts it at %d",
				indexSectionNames[i], sec.off, wantOff)
		}
		wantOff = v3Pad(sec.off + sec.count*int64(sec.elemSize))
		h.secs[i] = sec
	}
	if h.fileSize != wantOff {
		return nil, fmt.Errorf("graphio: v3 file size %d, sections end at %d", h.fileSize, wantOff)
	}
	// The reserved tail is outside the CRC'd prefix; requiring it zero keeps
	// the whole-file property that any flipped byte is rejected.
	for i := v3HeaderCRCOff + 4; i < v3HeaderSize; i++ {
		if hdr[i] != 0 {
			return nil, fmt.Errorf("graphio: v3 header padding byte %d is %#x, want 0", i, hdr[i])
		}
	}
	return h, nil
}

// checkV3Pad enforces zero padding between sections — padding is not CRC-
// covered, so this is what keeps "any flipped byte is rejected" true for
// the whole file.
func checkV3Pad(pad []byte, after string) error {
	for _, b := range pad {
		if b != 0 {
			return fmt.Errorf("graphio: nonzero padding byte %#x after %s section", b, after)
		}
	}
	return nil
}

// verifyV3Sections checks every section CRC against the mapped bytes, plus
// the zero-ness of the uncovered padding runs between them.
func verifyV3Sections(data []byte, h *v3Header) error {
	for i, sec := range h.secs {
		end := sec.off + sec.count*int64(sec.elemSize)
		if got := crc32.Checksum(data[sec.off:end], castagnoli); got != sec.crc {
			return fmt.Errorf("graphio: %s section checksum mismatch: computed %#x, stored %#x",
				indexSectionNames[i], got, sec.crc)
		}
		if err := checkV3Pad(data[end:v3Pad(end)], indexSectionNames[i]); err != nil {
			return err
		}
	}
	return nil
}

// v3SummaryGraph builds a SummaryGraph whose arrays alias the mapped
// sections (no copy). Alignment holds by construction — sections are
// 64-byte-aligned relative to a page-aligned base — and the casts verify it
// anyway.
func v3SummaryGraph(data []byte, h *v3Header) (*core.SummaryGraph, error) {
	sec := func(i int) []byte {
		s := h.secs[i]
		return data[s.off : s.off+s.count*int64(s.elemSize)]
	}
	sg := &core.SummaryGraph{}
	var err error
	for i, dst := range []*[]int32{&sg.Tau, &sg.EdgeToSN, &sg.K, &sg.EdgeList, &sg.Adj} {
		if *dst, err = mmapio.Int32s(sec(i)); err != nil {
			return nil, fmt.Errorf("graphio: %s section: %w", indexSectionNames[i], err)
		}
	}
	for i, dst := range []*[]int64{&sg.EdgeOffsets, &sg.AdjOffsets} {
		if *dst, err = mmapio.Int64s(sec(5 + i)); err != nil {
			return nil, fmt.Errorf("graphio: %s section: %w", indexSectionNames[5+i], err)
		}
	}
	return sg, nil
}

// MapIndexFile loads a v3 index file zero-copy: the file is mapped
// read-only and the summary graph's arrays alias the mapping (recorded in
// SummaryGraph.Backing, which keeps the mapping alive — see mmapio). The
// header is always CRC-verified before any offset is trusted, ValidateLoaded
// always runs before the index is returned, an index whose edge count is
// not edges (the graph it must serve) is rejected before any background
// work starts, and section checksums are
// verified per mode: up front (VerifyEager) or in a background goroutine
// whose finding surfaces through the returned Mapping's VerifyErr
// (VerifyLazy). Only little-endian hosts can load zero-copy; use
// ReadBinaryIndexFile — which auto-detects v3 — elsewhere.
func MapIndexFile(path string, edges int64, mode VerifyMode) (*core.SummaryGraph, *mmapio.Mapping, error) {
	if err := injectRead(); err != nil {
		return nil, nil, err
	}
	if mode != VerifyEager && mode != VerifyLazy {
		return nil, nil, fmt.Errorf("graphio: unknown verify mode %d", mode)
	}
	if !mmapio.HostLittleEndian {
		return nil, nil, fmt.Errorf("graphio: zero-copy v3 load requires a little-endian host; use ReadBinaryIndexFile")
	}
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*core.SummaryGraph, *mmapio.Mapping, error) {
		m.Unmap()
		return nil, nil, err
	}
	data := m.Bytes()
	if len(data) < v3HeaderSize {
		return fail(fmt.Errorf("graphio: %s: %d bytes, shorter than a v3 header", path, len(data)))
	}
	h, err := parseV3Header(data)
	if err != nil {
		return fail(err)
	}
	if int64(len(data)) != h.fileSize {
		return fail(fmt.Errorf("graphio: %s: file is %d bytes, header says %d (truncated or trailing garbage)",
			path, len(data), h.fileSize))
	}
	sg, err := v3SummaryGraph(data, h)
	if err != nil {
		return fail(err)
	}
	if int64(len(sg.Tau)) != edges {
		return fail(fmt.Errorf("graphio: %s: index built for %d edges, graph has %d", path, len(sg.Tau), edges))
	}
	sg.Backing = m
	if err := sg.ValidateLoaded(); err != nil {
		return fail(fmt.Errorf("graphio: corrupt index: %w", err))
	}
	if mode == VerifyEager {
		if err := verifyV3Sections(data, h); err != nil {
			return fail(err)
		}
	} else {
		// The goroutine's reference keeps the mapping alive against the GC
		// finalizer for the duration of the pass. Deliberately spawned only
		// after every fail() path is behind us: fail unmaps, and a verifier
		// racing an unmap would fault.
		go func() {
			defer m.MarkVerifyDone()
			if err := verifyV3Sections(m.Bytes(), h); err != nil {
				cLazyVerifyFailures.Inc()
				m.SetVerifyErr(err)
				fmt.Fprintf(os.Stderr, "graphio: deferred verify of %s: %v\n", path, err)
			}
		}()
	}
	cMmapLoads.Inc()
	return sg, m, nil
}

// readBinaryIndexV3 is the streaming v3 decoder: portable (any endianness,
// any io.Reader), heap-backed — the fallback when mmap is unavailable and
// the differential oracle for the zero-copy path. br is positioned at the
// start of the header.
func readBinaryIndexV3(br *bufio.Reader) (*core.SummaryGraph, error) {
	hdr := make([]byte, v3HeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graphio: reading v3 header: %w", err)
	}
	h, err := parseV3Header(hdr)
	if err != nil {
		return nil, err
	}
	pos := int64(v3HeaderSize)
	// skipTo consumes the padding between pos and off and requires it zero
	// (padding is not CRC-covered, so zero-ness is its integrity check).
	// Padding runs are at most v3Align-1 bytes by construction.
	skipTo := func(off int64, after string) error {
		if skip := off - pos; skip > 0 {
			var pad [v3Align]byte
			if _, err := io.ReadFull(br, pad[:skip]); err != nil {
				return fmt.Errorf("graphio: reading v3 padding: %w", err)
			}
			if err := checkV3Pad(pad[:skip], after); err != nil {
				return err
			}
			pos = off
		}
		return nil
	}
	sg := &core.SummaryGraph{}
	prev := "header"
	for i, dst := range []*[]int32{&sg.Tau, &sg.EdgeToSN, &sg.K, &sg.EdgeList, &sg.Adj} {
		if err := skipTo(h.secs[i].off, prev); err != nil {
			return nil, err
		}
		if *dst, err = readV3Int32s(br, h.secs[i], indexSectionNames[i]); err != nil {
			return nil, err
		}
		pos += h.secs[i].count * 4
		prev = indexSectionNames[i]
	}
	for i, dst := range []*[]int64{&sg.EdgeOffsets, &sg.AdjOffsets} {
		sec := h.secs[5+i]
		if err := skipTo(sec.off, prev); err != nil {
			return nil, err
		}
		if *dst, err = readV3Int64s(br, sec, indexSectionNames[5+i]); err != nil {
			return nil, err
		}
		pos += sec.count * 8
		prev = indexSectionNames[5+i]
	}
	if err := skipTo(h.fileSize, prev); err != nil {
		return nil, err
	}
	if err := sg.ValidateLoaded(); err != nil {
		return nil, fmt.Errorf("graphio: corrupt index: %w", err)
	}
	return sg, nil
}

// readV3Int32s reads and CRC-checks one int32 section in bounded chunks, so
// a forged header claiming billions of elements fails when the stream runs
// dry instead of driving one giant allocation.
func readV3Int32s(r io.Reader, sec v3Section, name string) ([]int32, error) {
	const chunk = int64(1) << 20
	out := make([]int32, 0, min(sec.count, chunk/4))
	buf := make([]byte, min(sec.count*4, chunk))
	crc := uint32(0)
	for remaining := sec.count * 4; remaining > 0; {
		c := min(remaining, chunk)
		if _, err := io.ReadFull(r, buf[:c]); err != nil {
			return nil, fmt.Errorf("graphio: reading %s section: %w", name, err)
		}
		crc = crc32.Update(crc, castagnoli, buf[:c])
		for i := int64(0); i < c; i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i:])))
		}
		remaining -= c
	}
	if crc != sec.crc {
		return nil, fmt.Errorf("graphio: %s section checksum mismatch: computed %#x, stored %#x", name, crc, sec.crc)
	}
	return out, nil
}

// readV3Int64s is readV3Int32s for the int64 offset sections.
func readV3Int64s(r io.Reader, sec v3Section, name string) ([]int64, error) {
	const chunk = int64(1) << 20
	out := make([]int64, 0, min(sec.count, chunk/8))
	buf := make([]byte, min(sec.count*8, chunk))
	crc := uint32(0)
	for remaining := sec.count * 8; remaining > 0; {
		c := min(remaining, chunk)
		if _, err := io.ReadFull(r, buf[:c]); err != nil {
			return nil, fmt.Errorf("graphio: reading %s section: %w", name, err)
		}
		crc = crc32.Update(crc, castagnoli, buf[:c])
		for i := int64(0); i < c; i += 8 {
			out = append(out, int64(binary.LittleEndian.Uint64(buf[i:])))
		}
		remaining -= c
	}
	if crc != sec.crc {
		return nil, fmt.Errorf("graphio: %s section checksum mismatch: computed %#x, stored %#x", name, crc, sec.crc)
	}
	return out, nil
}

// SniffIndexFormat reports the layout version of an index file from its
// first bytes (v1 reports as FormatV2: same streaming read path).
func SniffIndexFormat(path string) (IndexFormat, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, fmt.Errorf("graphio: reading %s header: %w", path, err)
	}
	if binary.LittleEndian.Uint32(head[:]) != indexMagic {
		return 0, fmt.Errorf("graphio: bad index magic %#x", binary.LittleEndian.Uint32(head[:]))
	}
	if binary.LittleEndian.Uint32(head[4:]) == formatV3 {
		return FormatV3, nil
	}
	return FormatV2, nil
}
