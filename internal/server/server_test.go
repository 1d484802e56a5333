package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/gen"
	"equitruss/internal/obs"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// buildTestIndex runs the full pipeline over a small synthetic graph and
// returns the query-ready index plus the trussness array for the direct
// oracle.
func buildTestIndex(t testing.TB) (*community.Index, []int32) {
	t.Helper()
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 42)
	sup := triangle.Supports(g, 0)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 0, nil)
	return community.NewIndex(g, sg), tau
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp
}

func TestCommunityEndpointMatchesOracle(t *testing.T) {
	idx, tau := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	checked := 0
	for v := int32(0); v < idx.G.NumVertices() && checked < 40; v++ {
		for _, k := range []int32{3, 4, 5} {
			want := community.DirectCommunities(idx.G, tau, v, k)
			var doc queryDoc
			resp := getJSON(t, ts, fmt.Sprintf("/community?v=%d&k=%d&edges=1", v, k), &doc)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("v=%d k=%d: status %d", v, k, resp.StatusCode)
			}
			if doc.Count != len(want) {
				t.Fatalf("v=%d k=%d: %d communities, oracle has %d", v, k, doc.Count, len(want))
			}
			community.CanonicalizeCommunities(want)
			for i, c := range doc.Communities {
				if fmt.Sprint(c.Edges) != fmt.Sprint(want[i].Edges) {
					t.Fatalf("v=%d k=%d community %d: edges %v, oracle %v", v, k, i, c.Edges, want[i].Edges)
				}
				if c.Size != len(want[i].Vertices()) {
					t.Fatalf("v=%d k=%d community %d: size %d, oracle %d", v, k, i, c.Size, len(want[i].Vertices()))
				}
			}
			if len(want) > 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no vertex with communities checked — graph too sparse for the test")
	}
}

func TestCommunityEndpointCachedFlag(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	var first, second queryDoc
	getJSON(t, ts, "/community?v=1&k=3", &first)
	getJSON(t, ts, "/community?v=1&k=3", &second)
	if first.Cached {
		t.Fatal("first lookup reported cached")
	}
	if !second.Cached {
		t.Fatal("second identical lookup not served from cache")
	}
}

func TestCommunityEndpointErrors(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	cases := []struct {
		path string
		want int
	}{
		{"/community", http.StatusBadRequest},                // no params
		{"/community?v=abc&k=3", http.StatusBadRequest},      // bad vertex
		{"/community?v=1&k=xyz", http.StatusBadRequest},      // bad k
		{"/community?v=-1&k=3", http.StatusBadRequest},       // negative vertex
		{"/community?v=99999999&k=3", http.StatusBadRequest}, // out of range
		{"/nosuchpath", http.StatusNotFound},
	}
	for _, c := range cases {
		resp := getJSON(t, ts, c.path, nil)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/community", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /community: status %d, want 405", resp.StatusCode)
	}
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, batchResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("batch decode: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

func TestBatchEndpoint(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{Workers: 4}).Handler())
	defer ts.Close()
	// Duplicates included: the second occurrence may be answered from cache,
	// but results must align with the request order either way.
	body := `{"queries":[{"v":0,"k":3},{"v":1,"k":3},{"v":0,"k":3},{"v":2,"k":4}]}`
	resp, out := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(out.Results) != 4 {
		t.Fatalf("batch results = %d, want 4", len(out.Results))
	}
	for i, want := range []struct{ v, k int32 }{{0, 3}, {1, 3}, {0, 3}, {2, 4}} {
		r := out.Results[i]
		if r.Vertex != want.v || r.K != want.k {
			t.Fatalf("result %d is (%d,%d), want (%d,%d)", i, r.Vertex, r.K, want.v, want.k)
		}
		if r.Count != len(idx.Communities(want.v, want.k)) {
			t.Fatalf("result %d count %d disagrees with direct index query", i, r.Count)
		}
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{MaxBatch: 3}).Handler())
	defer ts.Close()
	if resp, _ := postBatch(t, ts, `{"queries":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, `{"queries":[{"v":-1,"k":3}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative vertex: status %d", resp.StatusCode)
	}
	over := `{"queries":[{"v":0,"k":3},{"v":1,"k":3},{"v":2,"k":3},{"v":3,"k":3}]}`
	if resp, _ := postBatch(t, ts, over); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d", resp.StatusCode)
	}
	resp := getJSON(t, ts, "/batch", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch: status %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	var doc struct {
		Status     string `json:"status"`
		Vertices   int64  `json:"vertices"`
		Edges      int64  `json:"edges"`
		Supernodes int64  `json:"supernodes"`
	}
	resp := getJSON(t, ts, "/healthz", &doc)
	if resp.StatusCode != http.StatusOK || doc.Status != "ok" {
		t.Fatalf("healthz: status %d, doc %+v", resp.StatusCode, doc)
	}
	if doc.Vertices != int64(idx.G.NumVertices()) || doc.Edges != idx.G.NumEdges() {
		t.Fatalf("healthz shape %+v disagrees with index", doc)
	}
}

func TestMetricsExposeCacheCounters(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	getJSON(t, ts, "/community?v=3&k=3", nil) // miss
	getJSON(t, ts, "/community?v=3&k=3", nil) // hit
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	io.Copy(&buf, resp.Body)
	body := buf.String()
	for _, want := range []string{
		"equitruss_server_cache_hits_total",
		"equitruss_server_cache_misses_total",
		"equitruss_server_community_requests_total",
		"equitruss_server_request_latency_ns_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	put := func(v int32) { c.Put(1, v, 3, nil) }
	put(1)
	put(2)
	if _, ok := c.Get(1, 1, 3); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	put(3) // evicts 2 (1 was just touched)
	if _, ok := c.Get(1, 2, 3); ok {
		t.Fatal("entry 2 survived eviction")
	}
	if _, ok := c.Get(1, 1, 3); !ok {
		t.Fatal("recently used entry 1 evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("cache len %d, want 2", c.Len())
	}
	// A disabled cache is a nil *Cache with no-op methods.
	var nilCache *Cache = NewCache(-1)
	nilCache.Put(1, 1, 3, nil)
	if _, ok := nilCache.Get(1, 1, 3); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if nilCache.Len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}

func TestPoolReserve(t *testing.T) {
	p := NewPool(4)
	// An uncontended over-ask greedily takes every slot, never more.
	got, err := p.Reserve(context.Background(), 10)
	if err != nil || got != 4 {
		t.Fatalf("Reserve(10) = %d, %v; want all 4 slots", got, err)
	}
	// With all slots held, a waiter must respect context expiry.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Reserve(ctx, 1); err == nil {
		t.Fatal("Reserve succeeded on a full pool with an expiring context")
	}
	p.Release(1)
	// One free slot: a big ask gets exactly the one available (no blocking
	// for the rest — that is what makes concurrent batches deadlock-free).
	if n, err := p.Reserve(context.Background(), 8); err != nil || n != 1 {
		t.Fatalf("Reserve on one-free pool = %d, %v; want 1", n, err)
	}
	p.Release(4)
}

func TestGracefulShutdownDrainsInflight(t *testing.T) {
	idx, _ := buildTestIndex(t)
	s := New(idx, Config{})
	inHandler := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHook = func() {
		select {
		case inHandler <- struct{}{}:
		default:
		}
		<-release
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.ListenAndServe(ctx, "127.0.0.1:0", 5*time.Second, func(a net.Addr) {
			addrCh <- a.String()
		})
	}()
	addr := <-addrCh
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/community?v=0&k=3")
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-inHandler // request is inside the handler, blocked on the hook
	cancel()    // begin graceful shutdown while the request is in flight
	select {
	case err := <-done:
		t.Fatalf("server returned (%v) before draining the in-flight request", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if code := <-reqDone; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	// The listener must be closed now.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestCacheNormalizesK covers the cache-fragmentation fix: every k below
// core.MinK produces the identical answer, so k = -5, 0, 1, 2, 3 must share
// one LRU entry (and hit it after the first miss) instead of occupying five.
func TestCacheNormalizesK(t *testing.T) {
	idx, _ := buildTestIndex(t)
	s := New(idx, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hitsBefore := cCacheHits.Value()
	for i, k := range []int32{-5, 0, 1, 2, 3} {
		var doc queryDoc
		getJSON(t, ts, fmt.Sprintf("/community?v=1&k=%d", k), &doc)
		if doc.K != core.MinK {
			t.Fatalf("k=%d: response k %d, want normalized %d", k, doc.K, core.MinK)
		}
		if wantCached := i > 0; doc.Cached != wantCached {
			t.Fatalf("k=%d: cached=%v, want %v", k, doc.Cached, wantCached)
		}
	}
	if n := s.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries for one normalized query, want 1", n)
	}
	if got := cCacheHits.Value() - hitsBefore; got != 4 {
		t.Fatalf("cache hit counter grew by %d, want 4", got)
	}
	// Batch path must normalize too: a batch mixing raw levels for the same
	// vertex stays one cache entry and reports every query cached.
	body := `{"queries":[{"v":1,"k":-2},{"v":1,"k":0},{"v":1,"k":3}]}`
	resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /batch: %v", err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, r := range br.Results {
		if r.K != core.MinK || !r.Cached {
			t.Fatalf("batch result %d: k=%d cached=%v, want k=%d cached=true", i, r.K, r.Cached, core.MinK)
		}
	}
	if n := s.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries after batch, want 1", n)
	}
}

// TestMembershipEndpoint checks the cheap per-vertex profile endpoint
// against the BFS oracle and its error handling.
func TestMembershipEndpoint(t *testing.T) {
	idx, _ := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	checked := 0
	for v := int32(0); v < idx.G.NumVertices() && checked < 25; v++ {
		var doc membershipDoc
		resp := getJSON(t, ts, fmt.Sprintf("/membership?v=%d", v), &doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("v=%d: status %d", v, resp.StatusCode)
		}
		want := idx.MembershipBFS(v)
		if doc.MaxK != idx.MaxK(v) {
			t.Fatalf("v=%d: max_k %d, want %d", v, doc.MaxK, idx.MaxK(v))
		}
		if len(doc.Membership) != len(want) {
			t.Fatalf("v=%d: profile %v, oracle %v", v, doc.Membership, want)
		}
		for k, n := range want {
			if doc.Membership[k] != n {
				t.Fatalf("v=%d k=%d: count %d, oracle %d", v, k, doc.Membership[k], n)
			}
		}
		if len(want) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no vertex with a non-empty profile checked")
	}
	for _, c := range []struct {
		path string
		want int
	}{
		{"/membership", http.StatusBadRequest},
		{"/membership?v=abc", http.StatusBadRequest},
		{"/membership?v=-1", http.StatusBadRequest},
		{"/membership?v=99999999", http.StatusBadRequest},
	} {
		if resp := getJSON(t, ts, c.path, nil); resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

// TestCommunityVerticesParam checks that vertex lists are omitted by default
// (counts come from the hierarchy) and materialized on vertices=1.
func TestCommunityVerticesParam(t *testing.T) {
	idx, tau := buildTestIndex(t)
	ts := httptest.NewServer(New(idx, Config{}).Handler())
	defer ts.Close()
	var v int32 = -1
	for u := int32(0); u < idx.G.NumVertices(); u++ {
		if len(community.DirectCommunities(idx.G, tau, u, 3)) > 0 {
			v = u
			break
		}
	}
	if v < 0 {
		t.Skip("no vertex with communities")
	}
	var plain, withV queryDoc
	getJSON(t, ts, fmt.Sprintf("/community?v=%d&k=3", v), &plain)
	getJSON(t, ts, fmt.Sprintf("/community?v=%d&k=3&vertices=1", v), &withV)
	want := community.CanonicalizeCommunities(community.DirectCommunities(idx.G, tau, v, 3))
	for i, c := range plain.Communities {
		if c.Vertices != nil {
			t.Fatalf("community %d: vertices present without vertices=1", i)
		}
		if c.Size != len(want[i].Vertices()) {
			t.Fatalf("community %d: size %d, oracle %d", i, c.Size, len(want[i].Vertices()))
		}
	}
	for i, c := range withV.Communities {
		if fmt.Sprint(c.Vertices) != fmt.Sprint(want[i].Vertices()) {
			t.Fatalf("community %d: vertices %v, oracle %v", i, c.Vertices, want[i].Vertices())
		}
	}
}

// TestCachePurgeBelow is the stale-epoch regression: entries cached under a
// retired epoch are unreachable through Get (the key carries the epoch) but
// used to sit in the LRU until natural rollover, pinning the old epoch's
// index storage. PurgeBelow must drop exactly the stale entries.
func TestCachePurgeBelow(t *testing.T) {
	c := NewCache(8)
	for v := int32(0); v < 3; v++ {
		c.Put(1, v, 3, nil)
	}
	c.Put(2, 0, 3, nil)
	evBefore := obs.GetCounter("server_cache_evictions", "").Value()
	if got := c.PurgeBelow(2); got != 3 {
		t.Fatalf("PurgeBelow removed %d entries, want 3", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len %d after purge, want 1", c.Len())
	}
	if _, ok := c.Get(2, 0, 3); !ok {
		t.Fatal("current-epoch entry lost in purge")
	}
	if _, ok := c.Get(1, 0, 3); ok {
		t.Fatal("stale entry survived purge")
	}
	if d := obs.GetCounter("server_cache_evictions", "").Value() - evBefore; d != 3 {
		t.Fatalf("evictions counter advanced by %d, want 3", d)
	}
	if got := c.PurgeBelow(2); got != 0 {
		t.Fatalf("second purge removed %d entries, want 0", got)
	}
	var nilCache *Cache
	if got := nilCache.PurgeBelow(9); got != 0 {
		t.Fatal("nil cache purge did something")
	}
}

// TestPublishPurgesStaleCacheEntries checks the server-level wiring: after
// Publish swaps in a new epoch, the previous epoch's cached answers are
// gone from the LRU, not merely unreachable.
func TestPublishPurgesStaleCacheEntries(t *testing.T) {
	g := gen.Clique(5)
	sup := triangle.Supports(g, 1)
	tau, _, _ := truss.DecomposeSerialCtx(nil, g, sup)
	sg, _, _ := core.BuildCtx(nil, g, tau, core.VariantCOptimal, 1, nil)
	s := New(community.NewIndex(g, sg), Config{CacheSize: 16})
	ep := s.epoch().num
	s.cache.Put(ep, 0, 5, nil)
	s.cache.Put(ep, 1, 5, nil)
	if s.cache.Len() != 2 {
		t.Fatalf("cache len %d before publish, want 2", s.cache.Len())
	}
	s.Publish(community.NewIndex(g, sg), 0)
	if s.cache.Len() != 0 {
		t.Fatalf("cache holds %d stale entries after publish, want 0", s.cache.Len())
	}
}
