package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/faults"
	"equitruss/internal/gen"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
	"equitruss/internal/wal"
)

// newLiveServer builds a live server: epoch 1 published over a generated
// graph, WAL in a temp dir, update pipeline attached. mutate customizes
// the LiveConfig.
func newLiveServer(t *testing.T, scale string, mutate func(*LiveConfig)) (*Server, *httptest.Server) {
	t.Helper()
	var g = gen.Clique(5)
	if scale == "rmat" {
		g = gen.RMAT(8, 6, 0.57, 0.19, 0.19, 42)
	}
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantSerial, 1, nil)
	w, err := wal.Open(filepath.Join(t.TempDir(), "wal.log"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewPending(Config{})
	s.Publish(community.NewIndex(g, sg), 0)
	lc := LiveConfig{WAL: w, Dyn: dynamic.FromStatic(g, tau), Threads: 1}
	if mutate != nil {
		mutate(&lc)
	}
	if err := s.EnableUpdates(lc); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		w.Close()
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postUpdate(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	json.NewDecoder(resp.Body).Decode(&doc)
	return resp, doc
}

// waitApplied polls /healthz until applied_seq reaches seq.
func waitApplied(t *testing.T, ts *httptest.Server, seq uint64) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var doc map[string]any
		getJSON(t, ts, "/healthz", &doc)
		if applied, ok := doc["applied_seq"].(float64); ok && uint64(applied) >= seq {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("applied_seq never reached %d: %v", seq, doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUpdateAcksAndApplies: an insert batch is acked with the next WAL
// sequence, the applier publishes a new epoch, and queries see the change.
func TestUpdateAcksAndApplies(t *testing.T) {
	_, ts := newLiveServer(t, "clique", nil)
	// Grow the 5-clique to a 6-clique: vertex 5 joins everyone.
	resp, doc := postUpdate(t, ts,
		`{"ops":[{"u":5,"v":0},{"u":5,"v":1},{"u":5,"v":2},{"u":5,"v":3},{"u":5,"v":4}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %v", resp.StatusCode, doc)
	}
	if doc["seq"].(float64) != 1 || doc["acked"] != true {
		t.Fatalf("bad ack: %v", doc)
	}
	health := waitApplied(t, ts, 1)
	if health["epoch"].(float64) < 2 {
		t.Fatalf("epoch did not advance: %v", health)
	}
	// The new vertex is now queryable and lands in the 6-clique's k=6 truss.
	var q queryDoc
	r := getJSON(t, ts, "/community?v=5&k=6", &q)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("query after update: status %d", r.StatusCode)
	}
	if q.Count != 1 || q.Communities[0].Size != 6 {
		t.Fatalf("vertex 5 not in the grown clique: %+v", q)
	}
}

// TestCacheInvalidatedAcrossEpochs is the satellite regression test: a
// cached (vertex, k) answer from the pre-update epoch must not be returned
// after the update publishes a new epoch.
func TestCacheInvalidatedAcrossEpochs(t *testing.T) {
	_, ts := newLiveServer(t, "clique", nil)
	// Prime the cache: the 5-clique has one k=5 community holding vertex 0.
	var before queryDoc
	getJSON(t, ts, "/community?v=0&k=5", &before)
	if before.Count != 1 {
		t.Fatalf("expected one k=5 community before update, got %+v", before)
	}
	var primed queryDoc
	getJSON(t, ts, "/community?v=0&k=5", &primed)
	if !primed.Cached {
		t.Fatal("second identical query should be a cache hit")
	}
	// Delete two edges; the k=5 truss collapses.
	resp, _ := postUpdate(t, ts,
		`{"ops":[{"op":"delete","u":3,"v":4},{"op":"delete","u":2,"v":4}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	waitApplied(t, ts, 1)
	var after queryDoc
	getJSON(t, ts, "/community?v=0&k=5", &after)
	if after.Cached {
		t.Fatal("stale pre-update cache entry served after epoch swap")
	}
	if after.Count != 0 {
		t.Fatalf("k=5 community should be gone after deletions, got %+v", after)
	}
}

// TestUpdateBackpressure: with the applier held and the queue full, the
// next update is shed with 429 + Retry-After instead of queueing unbounded.
func TestUpdateBackpressure(t *testing.T) {
	release := make(chan struct{})
	hold := make(chan struct{}, 8)
	_, ts := newLiveServer(t, "clique", func(lc *LiveConfig) {
		lc.QueueDepth = 1
		lc.testApplyHook = func() {
			hold <- struct{}{}
			<-release
		}
	})
	defer close(release)
	// First update: dequeued by the applier, which then blocks in the hook.
	resp, _ := postUpdate(t, ts, `{"ops":[{"u":5,"v":0}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update 1 status %d", resp.StatusCode)
	}
	<-hold // applier is now holding batch 1
	// Second update: sits in the queue (depth 1).
	resp, _ = postUpdate(t, ts, `{"ops":[{"u":5,"v":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update 2 status %d", resp.StatusCode)
	}
	// Third update: queue full — shed.
	resp, doc := postUpdate(t, ts, `{"ops":[{"u":5,"v":2}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %v", resp.StatusCode, doc)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var health map[string]any
	getJSON(t, ts, "/healthz", &health)
	if health["staleness"].(float64) < 1 {
		t.Fatalf("staleness should be positive with a held applier: %v", health)
	}
}

// TestUpdateValidation: malformed bodies and invalid operations are
// rejected before anything reaches the WAL.
func TestUpdateValidation(t *testing.T) {
	s, ts := newLiveServer(t, "clique", func(lc *LiveConfig) {
		lc.MaxBatch = 2
		lc.MaxVertexID = 100
	})
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"garbage", `{`, http.StatusBadRequest},
		{"empty", `{"ops":[]}`, http.StatusBadRequest},
		{"self-loop", `{"ops":[{"u":1,"v":1}]}`, http.StatusBadRequest},
		{"negative", `{"ops":[{"u":-1,"v":2}]}`, http.StatusBadRequest},
		{"huge-vertex", `{"ops":[{"u":1,"v":101}]}`, http.StatusBadRequest},
		{"bad-op", `{"ops":[{"op":"upsert","u":1,"v":2}]}`, http.StatusBadRequest},
		{"oversize", `{"ops":[{"u":5,"v":0},{"u":5,"v":1},{"u":5,"v":2}]}`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, doc := postUpdate(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %v", resp.StatusCode, tc.status, doc)
			}
		})
	}
	if got := s.live.cfg.WAL.LastSeq(); got != 0 {
		t.Fatalf("rejected updates reached the WAL: LastSeq = %d", got)
	}
	// GET is not allowed.
	resp, err := ts.Client().Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d", resp.StatusCode)
	}
}

// TestUpdateBodySizeCapped: the body is bounded before JSON decoding, so a
// request with vastly more ops than MaxBatch (or an arbitrarily large body
// of any shape) is cut off at the reader instead of being materialized.
func TestUpdateBodySizeCapped(t *testing.T) {
	s, ts := newLiveServer(t, "clique", func(lc *LiveConfig) { lc.MaxBatch = 2 })
	var huge bytes.Buffer
	huge.WriteString(`{"ops":[`)
	for i := 0; i < 10000; i++ {
		if i > 0 {
			huge.WriteByte(',')
		}
		fmt.Fprintf(&huge, `{"u":%d,"v":%d}`, i, i+1)
	}
	huge.WriteString(`]}`)
	for _, tc := range []struct{ name, body string }{
		{"too-many-ops", huge.String()},
		{"giant-padding", `{"pad":"` + string(bytes.Repeat([]byte{'x'}, 1<<20)) + `","ops":[{"u":1,"v":2}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, doc := postUpdate(t, ts, tc.body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413: %v", resp.StatusCode, doc)
			}
		})
	}
	if got := s.live.cfg.WAL.LastSeq(); got != 0 {
		t.Fatalf("rejected oversized updates reached the WAL: LastSeq = %d", got)
	}
}

// TestDefaultMaxVertexID: the default is 2·|V| floored at 1<<20 — computed
// in int64 so graphs past 2^30 vertices clamp to MaxInt32 instead of
// overflowing negative and collapsing to the floor.
func TestDefaultMaxVertexID(t *testing.T) {
	for _, tc := range []struct{ n, want int32 }{
		{0, 1 << 20},
		{5, 1 << 20},
		{1 << 20, 1 << 21},
		{1 << 30, (1 << 31) - 1},       // 2·n == 2^31 overflows int32: clamp
		{(1 << 31) - 1, (1 << 31) - 1}, // max |V|: clamp, not negative
	} {
		if got := defaultMaxVertexID(tc.n); got != tc.want {
			t.Fatalf("defaultMaxVertexID(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestUpdateOnStaticServer: without EnableUpdates, POST /update is 404 and
// everything else is unaffected.
func TestUpdateOnStaticServer(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json",
		bytes.NewBufferString(`{"ops":[{"u":1,"v":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("static /update: status %d, want 404", resp.StatusCode)
	}
}

// TestReadyzGating: a pending server reports not-ready and answers queries
// with 503; publishing flips both, and /readyz stays outside the admission
// limiter.
func TestReadyzGating(t *testing.T) {
	s := NewPending(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := getJSON(t, ts, "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pending /readyz: status %d, want 503", resp.StatusCode)
	}
	resp = getJSON(t, ts, "/community?v=0&k=3", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pending /community: status %d, want 503", resp.StatusCode)
	}
	// Liveness stays 200 with epoch 0 while pending.
	var health map[string]any
	if resp = getJSON(t, ts, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("pending /healthz: status %d, want 200", resp.StatusCode)
	}
	if health["epoch"].(float64) != 0 {
		t.Fatalf("pending epoch: %v", health["epoch"])
	}
	idx, _ := buildTestIndex(t)
	s.Publish(idx, 0)
	var ready map[string]any
	if resp = getJSON(t, ts, "/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("published /readyz: status %d, want 200", resp.StatusCode)
	}
	if ready["epoch"].(float64) != 1 {
		t.Fatalf("first publish should be epoch 1: %v", ready)
	}
	if resp = getJSON(t, ts, "/community?v=0&k=3", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("published /community: status %d", resp.StatusCode)
	}
	// Checksums are hex strings in healthz once published.
	getJSON(t, ts, "/healthz", &health)
	sums, ok := health["checksums"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing checksums: %v", health)
	}
	for _, layer := range []string{"tau", "summary", "hierarchy"} {
		hex, ok := sums[layer].(string)
		if !ok || len(hex) != 16 {
			t.Fatalf("checksum %s not a 16-char hex string: %v", layer, sums[layer])
		}
	}
}

// TestUpdateRecoveryDifferential: acked updates survive abandoning the
// server — reopening the WAL and replaying over the same base reproduces
// the exact published state, checksum for checksum.
func TestUpdateRecoveryDifferential(t *testing.T) {
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 42)
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantSerial, 1, nil)
	walPath := filepath.Join(t.TempDir(), "wal.log")
	w, err := wal.Open(walPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewPending(Config{})
	s.Publish(community.NewIndex(g, sg), 0)
	if err := s.EnableUpdates(LiveConfig{WAL: w, Dyn: dynamic.FromStatic(g, tau), Threads: 1}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	n := g.NumVertices()
	for i := 0; i < 12; i++ {
		body := fmt.Sprintf(`{"ops":[{"u":%d,"v":%d},{"op":"delete","u":%d,"v":%d}]}`,
			n+int32(i), i%int(n), (3*i)%int(n), (5*i+1)%int(n))
		resp, doc := postUpdate(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d: status %d: %v", i, resp.StatusCode, doc)
		}
	}
	health := waitApplied(t, ts, 12)
	wantSums := health["checksums"].(map[string]any)
	// Abandon without clean shutdown: the WAL on disk is all that survives.
	ts.Close()
	s.Close()
	w.Close()

	// Recover: same base, fresh replay, serial single-threaded rebuild.
	w2, err := wal.Open(walPath, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	dyn := dynamic.FromStatic(g, tau)
	if err := w2.Replay(0, func(seq uint64, b wal.Batch) error {
		for _, op := range b {
			if op.Del {
				dyn.DeleteEdge(op.U, op.V)
			} else if _, err := dyn.InsertEdge(op.U, op.V); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	g2, tau2, err := dyn.ToStatic()
	if err != nil {
		t.Fatal(err)
	}
	sg2, _, _ := core.BuildCtx(nil, g2, tau2, core.VariantSerial, 1, nil)
	got := community.NewIndex(g2, sg2).Checksums()
	for layer, want := range map[string]uint64{
		"tau": got.Tau, "summary": got.Summary, "hierarchy": got.Hierarchy,
	} {
		if fmt.Sprintf("%016x", want) != wantSums[layer].(string) {
			t.Fatalf("%s checksum: recovered %016x, served %v", layer, want, wantSums[layer])
		}
	}
}

// TestApplierPanicDegradesToReadOnly: a panic on the applier goroutine must
// not kill the process or the queries — updates flip to 503 and /healthz
// reports degraded, while the published epoch keeps serving.
func TestApplierPanicDegradesToReadOnly(t *testing.T) {
	_, ts := newLiveServer(t, "clique", func(lc *LiveConfig) {
		lc.testApplyHook = func() { panic("injected applier crash") }
	})
	resp, _ := postUpdate(t, ts, `{"ops":[{"u":5,"v":0}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update ack: status %d", resp.StatusCode)
	}
	// The applier dies on this batch; wait for degraded to surface.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var health map[string]any
		getJSON(t, ts, "/healthz", &health)
		if u, _ := health["updates"].(string); u != "ok" && u != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported degraded: %v", health)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ = postUpdate(t, ts, `{"ops":[{"u":5,"v":1}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update after applier crash: status %d, want 503", resp.StatusCode)
	}
	if r := getJSON(t, ts, "/community?v=0&k=5", nil); r.StatusCode != http.StatusOK {
		t.Fatalf("query after applier crash: status %d", r.StatusCode)
	}
}

// TestUpdatePanicFaultRecovered: a panic injected at the admission fault
// site is converted to a 500 by the recovery middleware — the mutator mutex
// and queue are left consistent, so the next update succeeds.
func TestUpdatePanicFaultRecovered(t *testing.T) {
	_, ts := newLiveServer(t, "clique", nil)
	faults.Enable(1)
	defer faults.Disable()
	faults.Set(siteUpdate, faults.Plan{Action: faults.Panic, Every: 1, MaxFires: 1})
	resp, _ := postUpdate(t, ts, `{"ops":[{"u":5,"v":0}]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked update: status %d, want 500", resp.StatusCode)
	}
	resp, doc := postUpdate(t, ts, `{"ops":[{"u":5,"v":0}]}`)
	if resp.StatusCode != http.StatusOK || doc["seq"].(float64) != 1 {
		t.Fatalf("update after panic: status %d %v", resp.StatusCode, doc)
	}
}

// TestUpdateModesConvergeDifferential drives the identical update stream
// through a full-rebuild applier, a pure incremental applier, and the auto
// mode, and asserts all three publish bit-identical state (all three
// checksum layers) after every batch — the server-level statement of the
// incremental-repair correctness gate.
func TestUpdateModesConvergeDifferential(t *testing.T) {
	type liveServer struct {
		mode string
		ts   *httptest.Server
	}
	servers := make([]liveServer, 0, 3)
	for _, mode := range []string{UpdateModeFull, UpdateModeIncremental, UpdateModeAuto} {
		_, ts := newLiveServer(t, "rmat", func(lc *LiveConfig) { lc.Mode = mode })
		servers = append(servers, liveServer{mode, ts})
	}
	incrBefore := cUpdateIncrApplies.Value()
	// A deterministic mix of inserts (some closing new triangles, some new
	// vertices) and deletes of base edges.
	n := 1 << 8 // RMAT scale 8
	for batch := 1; batch <= 6; batch++ {
		body := fmt.Sprintf(
			`{"ops":[{"u":%d,"v":%d},{"u":%d,"v":%d},{"op":"delete","u":%d,"v":%d},{"u":%d,"v":%d}]}`,
			n+batch, (3*batch)%n, n+batch, (3*batch+1)%n,
			(7*batch)%n, (11*batch+2)%n,
			(5*batch)%n, (13*batch+1)%n)
		var sums map[string]any
		for _, sv := range servers {
			resp, doc := postUpdate(t, sv.ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mode %s batch %d: status %d: %v", sv.mode, batch, resp.StatusCode, doc)
			}
			health := waitApplied(t, sv.ts, uint64(batch))
			got := health["checksums"].(map[string]any)
			if sums == nil {
				sums = got
				continue
			}
			for _, layer := range []string{"tau", "summary", "hierarchy"} {
				if got[layer] != sums[layer] {
					t.Fatalf("mode %s batch %d: %s checksum %v != full-rebuild %v",
						sv.mode, batch, layer, got[layer], sums[layer])
				}
			}
		}
	}
	if cUpdateIncrApplies.Value() == incrBefore {
		t.Fatal("no batch was published via the incremental path")
	}
}

// TestChaosRebuildBackoffRetries: an error injected at the rebuild attempt
// (second hit of the server.update site — the first is admission) must not
// lose the batch: the applier backs off, retries, and publishes. The
// rebuild-error counter and the fault accounting prove the failure and the
// retry both happened.
func TestChaosRebuildBackoffRetries(t *testing.T) {
	_, ts := newLiveServer(t, "clique", func(lc *LiveConfig) {
		lc.RebuildBackoff = 2 * time.Millisecond
		lc.RebuildBackoffMax = 10 * time.Millisecond
	})
	faults.Enable(1)
	defer faults.Disable()
	errsBefore := cUpdateRebuildErrors.Value()
	faults.Set(siteUpdate, faults.Plan{Action: faults.Error, Every: 2, MaxFires: 1})
	resp, doc := postUpdate(t, ts, `{"ops":[{"u":5,"v":0},{"u":5,"v":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %v", resp.StatusCode, doc)
	}
	health := waitApplied(t, ts, 1)
	if health["staleness"].(float64) != 0 {
		t.Fatalf("staleness after retry: %v", health["staleness"])
	}
	if fires := faults.Fires(siteUpdate); fires != 1 {
		t.Fatalf("fault fired %d times, want exactly 1 (at the rebuild attempt)", fires)
	}
	if hits := faults.Hits(siteUpdate); hits < 3 {
		t.Fatalf("site hit %d times, want >= 3 (admission, failed rebuild, retried rebuild)", hits)
	}
	if got := cUpdateRebuildErrors.Value(); got != errsBefore+1 {
		t.Fatalf("rebuild-error counter moved by %d, want 1", got-errsBefore)
	}
	// The published state must match what a clean server reaches.
	_, clean := newLiveServer(t, "clique", nil)
	resp, _ = postUpdate(t, clean, `{"ops":[{"u":5,"v":0},{"u":5,"v":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("clean update failed")
	}
	want := waitApplied(t, clean, 1)["checksums"].(map[string]any)
	got := health["checksums"].(map[string]any)
	for _, layer := range []string{"tau", "summary", "hierarchy"} {
		if got[layer] != want[layer] {
			t.Fatalf("%s checksum after faulted retry %v != clean %v", layer, got[layer], want[layer])
		}
	}
}

// TestUpdateMetricsExposition is the regression test for the write-path
// observability satellite: staleness and sequence gauges plus the applier
// rebuild histogram must appear in the Prometheus exposition.
func TestUpdateMetricsExposition(t *testing.T) {
	_, ts := newLiveServer(t, "clique", nil)
	resp, _ := postUpdate(t, ts, `{"ops":[{"u":5,"v":0}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	waitApplied(t, ts, 1)
	raw, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(raw.Body)
	raw.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		"# TYPE equitruss_server_update_staleness gauge",
		"equitruss_server_update_acked_seq 1",
		"equitruss_server_update_applied_seq 1",
		"equitruss_server_update_staleness 0",
		"equitruss_server_update_queue_capacity",
		"# TYPE equitruss_server_applier_rebuild_seconds histogram",
		"equitruss_server_applier_rebuild_seconds_count",
		"equitruss_server_update_incremental_applies",
		"equitruss_server_update_full_rebuilds",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestEnableUpdatesRejectsUnknownMode: a typo'd mode fails fast instead of
// silently selecting a default.
func TestEnableUpdatesRejectsUnknownMode(t *testing.T) {
	g := gen.Clique(5)
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantSerial, 1, nil)
	w, err := wal.Open(filepath.Join(t.TempDir(), "wal.log"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s := NewPending(Config{})
	s.Publish(community.NewIndex(g, sg), 0)
	defer s.Close()
	if err := s.EnableUpdates(LiveConfig{WAL: w, Dyn: dynamic.FromStatic(g, tau), Mode: "fastest"}); err == nil {
		t.Fatal("unknown update mode accepted")
	}
}
