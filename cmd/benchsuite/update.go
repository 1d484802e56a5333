package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/server"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
	"equitruss/internal/wal"
)

// The live-update experiment drives the same deterministic edge-op stream
// through the serving stack's POST /update pipeline twice — once with the
// applier forced to full per-batch rebuilds, once with incremental
// summary-graph + hierarchy repair — and measures the applier's sustained
// service rate (ops/sec) and per-batch staleness (WAL ack → batch serving).
// The stream is closed-loop (one batch in flight: each post waits for its
// batch to be published before the next), so every batch isolates one
// publish cycle instead of coalescing into one big drain, and staleness is
// exactly the per-batch publish latency. The ops are community churn away
// from the dense RMAT core — fresh triangles bridged into the base graph,
// then torn down eight batches later — so the exact dynamic trussness
// maintenance (identical work in both engines) stays small relative to the
// publish cost the experiment exists to compare. Both engines must finish on
// bit-identical state: the run panics on a checksum mismatch rather than
// reporting a time for a wrong answer.
const (
	// updateRMATScale/updateRMATEdgeFactor size the base graph. Scale 11 at
	// edge factor 8 (~13k undirected edges) makes a full rebuild clearly
	// measurable per batch while keeping the full-engine leg of the sweep
	// inside a couple of seconds.
	updateRMATScale      = 11
	updateRMATEdgeFactor = 8
	updateRMATSeed       = 42
	// updateOpsPerBatch is the edge operations per POST /update batch.
	updateOpsPerBatch = 6
	// updateTeardownLag is how many batches a churned-in triangle lives
	// before the stream deletes it again.
	updateTeardownLag = 8
)

// updateEngines is the sweep order. Full first: the check mode normalizes
// the incremental engine's time by the same run's full-rebuild time, so the
// full row must exist before the ratio is formed.
var updateEngines = []string{server.UpdateModeFull, server.UpdateModeIncremental}

// updateBatches scales the stream length with -scale so a quick CI sweep
// stays quick while a full run sustains load long enough to be meaningful.
func updateBatches(scale float64) int {
	b := int(480 * scale)
	if b < 24 {
		b = 24
	}
	return b
}

// runUpdate times the live-update applier engines and records (engine,
// ops/sec, p95 staleness, checksum) rows into the artifact.
func runUpdate(cfg config) {
	g := gen.RMAT(updateRMATScale, updateRMATEdgeFactor, 0.57, 0.19, 0.19, updateRMATSeed)
	batches := updateBatches(cfg.scale)
	fmt.Printf("rmat%d: %d vertices, %d edges, %d batches x %d ops\n",
		updateRMATScale, g.NumVertices(), g.NumEdges(), batches, updateOpsPerBatch)
	t := newTable("Graph", "Engine", "Ops/s", "p95 staleness(ms)", "Seconds", "vsFull")
	name := fmt.Sprintf("rmat%d", updateRMATScale)
	fullSec := 0.0
	var want uint64
	for i, engine := range updateEngines {
		res := timeUpdates(cfg, g, engine, batches)
		if i == 0 {
			fullSec, want = res.seconds, res.checksum
		} else if res.checksum != want {
			panic(fmt.Sprintf("update engine %s disagrees with full rebuild on %s: checksum %#x != %#x",
				engine, name, res.checksum, want))
		}
		t.row(name, engine, res.opsPerSec, res.p95Staleness.Seconds()*1000,
			res.seconds, fullSec/res.seconds)
		if cfg.art != nil {
			cfg.art.UpdateBench = append(cfg.art.UpdateBench, updateRow{
				Dataset: name, Engine: engine, Batches: batches,
				Ops: batches * updateOpsPerBatch, Seconds: res.seconds,
				UpdatesPerSec:   res.opsPerSec,
				P95StalenessSec: res.p95Staleness.Seconds(),
				Checksum:        res.checksum,
			})
		}
	}
	emit(cfg.sink, "update", "", t)
}

type updateResult struct {
	seconds      float64 // first post → last batch serving
	opsPerSec    float64
	p95Staleness time.Duration
	checksum     uint64
}

// timeUpdates stands up an in-process live server with the given applier
// engine (WAL fsync off: this measures the applier, not the disk) and
// streams the deterministic batch sequence through the real POST /update
// handler closed-loop: each post waits until its batch is serving before the
// next, so the applier's per-batch publish cycle is what gets timed.
func timeUpdates(cfg config, g *graph.Graph, engine string, batches int) updateResult {
	sup, _ := triangle.SupportsKernelCtx(nil, g, cfg.kernel, cfg.maxThr, nil)
	tau, _, _ := truss.DecomposeKernelCtx(nil, g, sup, cfg.peel, cfg.maxThr, nil)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantAfforest, cfg.maxThr, nil)
	dir, err := os.MkdirTemp("", "benchsuite-update-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{Policy: wal.SyncNever})
	if err != nil {
		panic(err)
	}
	defer w.Close()
	s := server.NewPending(server.Config{})
	s.Publish(community.NewIndex(g, sg), 0)
	defer s.Close()
	if err := s.EnableUpdates(server.LiveConfig{
		WAL: w, Dyn: dynamic.FromStatic(g, tau),
		Mode: engine, Variant: core.VariantAfforest, Threads: cfg.maxThr,
	}); err != nil {
		panic(err)
	}
	h := s.Handler()

	post := func(body string) int {
		req := httptest.NewRequest("POST", "/update", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	health := func() (int, map[string]string) {
		req := httptest.NewRequest("GET", "/healthz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var doc struct {
			AppliedSeq int               `json:"applied_seq"`
			Checksums  map[string]string `json:"checksums"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			panic(fmt.Sprintf("healthz: %v", err))
		}
		return doc.AppliedSeq, doc.Checksums
	}

	// The k-th batch builds a fresh triangle on three new vertices, bridges
	// it into the base vertex range, and (once the stream is warm) tears
	// down the triangle inserted updateTeardownLag batches earlier — both
	// repair directions, away from the dense core.
	n := int(g.NumVertices())
	triangleAt := func(k int) (int, int, int) {
		a := n + 3*(k-1)
		return a, a + 1, a + 2
	}
	batchBody := func(k int) string {
		a, b, c := triangleAt(k)
		head := fmt.Sprintf(`{"u":%d,"v":%d},{"u":%d,"v":%d},{"u":%d,"v":%d},{"u":%d,"v":%d}`,
			a, b, a, c, b, c, a, (7*k)%n)
		if k <= updateTeardownLag {
			return fmt.Sprintf(`{"ops":[%s,{"u":%d,"v":%d},{"u":%d,"v":%d}]}`,
				head, b, (11*k)%n, c, (13*k)%n)
		}
		oa, ob, oc := triangleAt(k - updateTeardownLag)
		return fmt.Sprintf(`{"ops":[%s,{"op":"delete","u":%d,"v":%d},{"op":"delete","u":%d,"v":%d}]}`,
			head, oa, ob, oa, oc)
	}

	ackTime := make([]time.Time, batches+1)
	appliedTime := make([]time.Time, batches+1)
	lastApplied := 0
	poll := func() {
		applied, _ := health()
		now := time.Now()
		for ; lastApplied < applied; lastApplied++ {
			appliedTime[lastApplied+1] = now
		}
	}

	start := time.Now()
	for k := 1; k <= batches; k++ {
		if code := post(batchBody(k)); code != 200 {
			panic(fmt.Sprintf("engine %s batch %d: status %d", engine, k, code))
		}
		ackTime[k] = time.Now()
		for lastApplied < k {
			poll()
			if lastApplied < k {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	wall := time.Since(start)

	stale := make([]time.Duration, 0, batches)
	for k := 1; k <= batches; k++ {
		d := appliedTime[k].Sub(ackTime[k])
		if d < 0 {
			d = 0
		}
		stale = append(stale, d)
		cfg.observe(d)
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i] < stale[j] })
	p95 := stale[(len(stale)*95+99)/100-1]

	_, sums := health()
	return updateResult{
		seconds:      wall.Seconds(),
		opsPerSec:    float64(batches*updateOpsPerBatch) / wall.Seconds(),
		p95Staleness: p95,
		checksum:     checksumStrings(sums["tau"], sums["summary"], sums["hierarchy"]),
	}
}

// checksumStrings hashes the serving state's three layer fingerprints into
// one artifact value.
func checksumStrings(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// checkUpdateRows gates the incremental engine's wall time normalized by the
// same run's full-rebuild time — the ratio the experiment exists to hold
// down. The same ratios-of-ratios and loud-failure discipline as the kernel
// gates.
func checkUpdateRows(base, art *benchArtifact) (int, error) {
	baseFull := fullSeconds(base.UpdateBench)
	curFull := fullSeconds(art.UpdateBench)
	checked := 0
	for _, row := range art.UpdateBench {
		if row.Engine == server.UpdateModeFull {
			continue
		}
		cf, okC := curFull[row.Dataset]
		if !okC {
			return checked, fmt.Errorf("update %s/%s: current run has no full-rebuild row to normalize by (run the full update sweep)",
				row.Dataset, row.Engine)
		}
		bf, okB := baseFull[row.Dataset]
		if !okB {
			return checked, fmt.Errorf("update %s/%s: baseline %s has no full-rebuild row for this dataset (regenerate the baseline)",
				row.Dataset, row.Engine, base.GitRev)
		}
		if bf < checkNoiseFloorSec || cf < checkNoiseFloorSec {
			continue
		}
		baseSec, found := findUpdateRow(base.UpdateBench, row.Dataset, row.Engine)
		if !found {
			return checked, fmt.Errorf("update %s/%s: no baseline row in %s — the gate cannot pass by omission (regenerate the baseline)",
				row.Dataset, row.Engine, base.GitRev)
		}
		curRatio := row.Seconds / cf
		baseRatio := baseSec / bf
		checked++
		if curRatio > baseRatio*checkMargin {
			return checked, fmt.Errorf("%s/%s: normalized update time %.3f (was %.3f in baseline %s) — >%.0f%% regression",
				row.Dataset, row.Engine, curRatio, baseRatio, base.GitRev, (checkMargin-1)*100)
		}
		fmt.Printf("# benchcheck update %s/%-11s ratio %.3f vs baseline %.3f ok\n",
			row.Dataset, row.Engine, curRatio, baseRatio)
	}
	return checked, nil
}

// findUpdateRow looks up a (dataset, engine) cell's seconds.
func findUpdateRow(rows []updateRow, dataset, engine string) (float64, bool) {
	for _, r := range rows {
		if r.Dataset == dataset && r.Engine == engine {
			return r.Seconds, true
		}
	}
	return 0, false
}

// fullSeconds indexes the full-rebuild engine's time per dataset.
func fullSeconds(rows []updateRow) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if r.Engine == server.UpdateModeFull {
			out[r.Dataset] = r.Seconds
		}
	}
	return out
}
