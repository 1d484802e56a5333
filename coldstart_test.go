package equitruss_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"equitruss"
	"equitruss/internal/graphio"
	"equitruss/internal/mmapio"
)

// TestColdstartServeFromMmap is the cold-start drill over the real binary:
// build a v3 index file, serve it with -index -verify lazy, take a first
// answer, SIGKILL the server, restart with -verify eager over the same
// file, and differential-check both processes' serving checksums against an
// independent in-process rebuild. The mapped file is the only index state —
// a kill can never corrupt it (the mapping is read-only), so restart is
// pure re-map.
//
// Gated behind EQUITRUSS_COLDSTART=1 (run `make coldstart`); tier-1
// `go test ./...` stays fast without it, and the in-process differential
// tests cover the same load-path equivalence.
func TestColdstartServeFromMmap(t *testing.T) {
	if os.Getenv("EQUITRUSS_COLDSTART") != "1" {
		t.Skip("set EQUITRUSS_COLDSTART=1 (or run `make coldstart`) to run the mmap serving drill")
	}
	binDir := t.TempDir()
	bin := filepath.Join(binDir, "equitruss-bin")
	build := exec.Command("go", "build", "-o", bin, "./cmd/equitruss")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building server binary: %v", err)
	}

	dir := t.TempDir()
	g := equitruss.GenerateRMAT(10, 8, 7)
	graphPath := filepath.Join(dir, "base.txt")
	if err := graphio.WriteEdgeListFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(dir, "index.v3")

	out, err := exec.Command(bin, "build",
		"-graph", graphPath, "-variant", "afforest",
		"-out", indexPath).CombinedOutput()
	if err != nil {
		t.Fatalf("build command: %v\n%s", err, out)
	}
	if f, err := graphio.SniffIndexFormat(indexPath); err != nil || f != graphio.FormatV3 {
		t.Fatalf("built index sniffs as %v, %v — want v3", f, err)
	}

	// The independent truth: a full in-process pipeline over the same graph.
	ix, err := equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest})
	if err != nil {
		t.Fatal(err)
	}
	wantSums := ix.Checksums()
	want := map[string]string{
		"tau":       fmt.Sprintf("%016x", wantSums.Tau),
		"summary":   fmt.Sprintf("%016x", wantSums.Summary),
		"hierarchy": fmt.Sprintf("%016x", wantSums.Hierarchy),
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := func(verify string) *exec.Cmd {
		cmd := exec.Command(bin, "serve",
			"-graph", graphPath, "-index", indexPath, "-verify", verify,
			"-addr", addr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting server (-verify %s): %v", verify, err)
		}
		return cmd
	}
	waitReady := func() {
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("server never became ready")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	checkServing := func(leg string) {
		// First answer: the strongest community of vertex 0's neighborhood.
		resp, err := http.Get("http://" + addr + "/community?v=0&k=3")
		if err != nil {
			t.Fatalf("%s: query: %v", leg, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query status %d", leg, resp.StatusCode)
		}
		resp, err = http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatalf("%s: healthz: %v", leg, err)
		}
		var health struct {
			MmapBytes int64             `json:"mmap_bytes"`
			LoadSec   float64           `json:"index_load_seconds"`
			Checksums map[string]string `json:"checksums"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: healthz decode: %v", leg, err)
		}
		if health.MmapBytes <= 0 {
			t.Fatalf("%s: mmap_bytes = %d — index was not served from a mapping", leg, health.MmapBytes)
		}
		if health.LoadSec <= 0 {
			t.Fatalf("%s: index_load_seconds = %v not reported", leg, health.LoadSec)
		}
		for layer, sum := range want {
			if health.Checksums[layer] != sum {
				t.Fatalf("%s: %s checksum %s != independent rebuild %s",
					leg, layer, health.Checksums[layer], sum)
			}
		}
	}

	// Leg 1: lazy verification, then SIGKILL with the mapping live.
	cmd := start("lazy")
	waitReady()
	checkServing("lazy")
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Leg 2: restart over the same file with eager verification — the kill
	// cannot have torn the read-only index, so this must come up clean and
	// agree byte-for-byte.
	cmd2 := start("eager")
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	waitReady()
	checkServing("eager-after-kill")
}

// writeFlippedIndex saves g's index as v3 and flips one low bit inside the
// tau section: the values stay in range, so the file passes structural
// validation and only the section checksum knows.
func writeFlippedIndex(t *testing.T, g *equitruss.Graph) string {
	t.Helper()
	sg, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: equitruss.Afforest, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flipped.v3")
	if err := equitruss.SaveIndexFile(path, sg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tauOff := binary.LittleEndian.Uint64(raw[48:]) // first section descriptor
	raw[tauOff] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func lazyVerifyFailures() int64 {
	for _, c := range equitruss.Counters() {
		if c.Name == "graphio_lazy_verify_failures" {
			return c.Value
		}
	}
	return 0
}

// TestOpenIndexFileLazyRejectsMismatchedGraph: a lazy open against the
// wrong graph must return the edge-count error before the background
// checksum sweep starts — a sweep racing the rejected mapping's unmap would
// fault, and a sweep that finishes would count a verify failure for an
// index nobody serves.
func TestOpenIndexFileLazyRejectsMismatchedGraph(t *testing.T) {
	path := writeFlippedIndex(t, equitruss.GenerateRMAT(9, 6, 3))
	other := equitruss.GenerateRMAT(7, 4, 9)
	before := lazyVerifyFailures()
	_, _, err := equitruss.OpenIndexFile(path, other, equitruss.VerifyLazy)
	if err == nil || !strings.Contains(err.Error(), "edges, graph has") {
		t.Fatalf("lazy open against a mismatched graph returned %v, want the edge-count error", err)
	}
	time.Sleep(200 * time.Millisecond)
	if got := lazyVerifyFailures(); got != before {
		t.Fatalf("graphio_lazy_verify_failures moved %d -> %d: a verifier ran over the rejected mapping", before, got)
	}
}

// TestServeFailsClosedOnLazyVerifyFailure: once the deferred checksum sweep
// finds the mapped index corrupt, the server must stop reporting ready and
// stop answering queries from the corrupt mapping.
func TestServeFailsClosedOnLazyVerifyFailure(t *testing.T) {
	g := equitruss.GenerateRMAT(9, 6, 3)
	ix, _, err := equitruss.OpenIndexFile(writeFlippedIndex(t, g), g, equitruss.VerifyLazy)
	if err != nil {
		t.Fatalf("lazy open rejected a structurally valid flip up front: %v", err)
	}
	m, ok := ix.SG.Backing.(*mmapio.Mapping)
	if !ok {
		t.Skip("index was not memory-mapped on this host")
	}
	for deadline := time.Now().Add(10 * time.Second); !m.VerifyDone(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("lazy verifier never finished")
		}
	}
	if m.VerifyErr() == nil {
		t.Fatal("lazy verifier missed the flipped tau byte")
	}
	ts := httptest.NewServer(equitruss.NewHandler(ix, equitruss.ServeOptions{}))
	defer ts.Close()
	for _, path := range []string{"/readyz", "/community?v=0&k=3", "/membership?v=0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s over a mapping that failed verification: status %d, want 503", path, resp.StatusCode)
		}
	}
}
