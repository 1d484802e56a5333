// Package server turns a built EquiTruss index into a concurrent HTTP/JSON
// community-query service — the serving shape the paper's fast index
// construction exists for: build (or load) once, then answer many
// personalized community lookups against the immutable summary graph.
//
// Endpoints:
//
//	GET  /community?v=<vertex>&k=<level>[&vertices=1][&edges=1]  one community query
//	POST /batch                                                  many queries, fanned out
//	GET  /membership?v=<vertex>                                  per-level community counts
//	GET  /healthz                                                liveness + index shape
//	GET  /metrics                                                Prometheus text exposition
//
// Queries are answered from the precomputed community hierarchy (built once
// at server construction): responses carry O(1) edge/vertex counts by
// default, and member vertex or edge lists are materialized only when the
// client opts in. Three pieces make it safe under load: an LRU cache keyed
// by (vertex, normalized k) holding compact community refs, a bounded
// worker pool so a batch of 10k queries degrades to queueing rather than a
// goroutine flood, and graceful shutdown that drains in-flight requests
// with a timeout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"equitruss/internal/buildinfo"
	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/faults"
	"equitruss/internal/obs"
	olog "equitruss/internal/obs/log"
)

var (
	cCommunityRequests = obs.GetCounter("server_community_requests",
		"GET /community requests served")
	cMembershipRequests = obs.GetCounter("server_membership_requests",
		"GET /membership requests served")
	cBatchRequests = obs.GetCounter("server_batch_requests",
		"POST /batch requests served")
	cBatchQueries = obs.GetCounter("server_batch_queries",
		"individual queries answered inside /batch requests")
	cBatchDeduped = obs.GetCounter("server_batch_deduped",
		"duplicate (vertex, k) queries collapsed inside /batch requests")
	cRequestErrors = obs.GetCounter("server_request_errors",
		"requests rejected with a 4xx/5xx status")
	cLoadShed = obs.GetCounter("server_load_shed",
		"requests rejected with 429 because the in-flight limit was reached")
	cPanicsRecovered = obs.GetCounter("server_panics_recovered",
		"handler panics converted to 500 responses by the recovery middleware")
	cLatencyNS = obs.GetCounter("server_request_latency_ns",
		"cumulative wall nanoseconds spent serving /community and /batch requests")
)

// Per-endpoint latency histograms: lock-free log2 buckets feeding the
// /metrics histogram families and their p50/p90/p99/p999 quantile digests.
var (
	hCommunity = obs.GetHistogram("server_community_request",
		"GET /community request latency")
	hBatch = obs.GetHistogram("server_batch_request",
		"POST /batch request latency")
	hMembership = obs.GetHistogram("server_membership_request",
		"GET /membership request latency")
)

// siteQuery is the fault-injection site on the query compute path; the
// chaos suite arms it with panics and errors to prove the server survives.
const siteQuery = "server.query"

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// CacheSize is the LRU capacity in entries; 0 selects the default
	// (4096), negative disables caching.
	CacheSize int
	// Workers caps the goroutines concurrently executing queries across all
	// requests; <= 0 selects one per usable CPU.
	Workers int
	// MaxBatch caps the queries accepted by one /batch request; <= 0
	// selects the default (10000). Larger bodies get 413.
	MaxBatch int
	// MaxInFlight caps the /community and /batch requests admitted
	// concurrently; excess requests are shed immediately with 429 and a
	// Retry-After hint instead of queueing without bound. 0 selects the
	// default (256), negative disables the limit. /healthz and /metrics
	// are never shed, so liveness probes keep passing under overload.
	MaxInFlight int
	// RequestTimeout bounds each /community and /batch request: the
	// request context gets this deadline and the batch fan-out aborts
	// (503) when it expires. <= 0 means no server-imposed deadline.
	RequestTimeout time.Duration
	// Tracer, when non-nil, records one span per /community and /batch
	// request (items = queries answered). Spans accumulate unbounded, so
	// tracing is for diagnostic runs, not steady-state serving.
	Tracer *obs.Trace
	// SampleN records a full stage trace (parse → pool wait → cache →
	// hierarchy query → encode) for one in every SampleN requests. 0 selects
	// the default (64), 1 traces every request, negative disables sampling.
	SampleN int
	// SlowThreshold is the latency at or above which a request is retained
	// in the /debug/requests slow ring even when unsampled. 0 selects the
	// default (250ms), negative disables slow capture.
	SlowThreshold time.Duration
	// DebugRing is the capacity of each /debug/requests trace ring; 0
	// selects the default (64).
	DebugRing int
	// Logger receives one structured record per request (request_id,
	// vertex, k, status, duration, cache_hit). Nil selects the process-wide
	// olog logger. OK requests log at Debug; slow ones at Warn; 5xx at
	// Error — so an Info-level production logger stays quiet until
	// something is wrong.
	Logger *slog.Logger
	// IndexLoadSeconds is the wall time the operator's load path spent
	// getting the initial index query-ready (decode or mmap, through
	// validation). Purely informational — surfaced on /healthz and
	// /metrics so cold-start regressions are observable in production.
	IndexLoadSeconds float64
	// MmapBytes is the size of the memory-mapped index file backing the
	// initial index, or 0 when it was decoded onto the heap.
	MmapBytes int64
}

const (
	defaultCacheSize   = 4096
	defaultMaxBatch    = 10000
	defaultMaxInFlight = 256
)

// Server answers community queries from the current epoch's immutable
// index. Static servers publish one epoch at construction and never swap;
// live servers republish after each applied update batch.
type Server struct {
	cur        atomic.Pointer[epoch]
	live       *mutator // non-nil once EnableUpdates attached a WAL pipeline
	cache      *Cache
	pool       *Pool
	tr         *obs.Trace
	reqs       *obs.ReqTracker
	log        *slog.Logger
	maxBatch   int
	reqTimeout time.Duration
	inflight   chan struct{} // admission semaphore; nil = unlimited
	mux        *http.ServeMux
	handler    http.Handler // mux wrapped in the recovery middleware

	// Cold-start facts from Config, reported on /healthz and /metrics.
	indexLoadSeconds float64
	mmapBytes        int64

	// testHook, when set, runs inside every query computation — tests use
	// it to hold requests open across a shutdown.
	testHook func()
}

// New builds a Server over a query-ready index: a pending server with the
// index published as epoch 1.
func New(idx *community.Index, cfg Config) *Server {
	s := NewPending(cfg)
	s.Publish(idx, 0)
	return s
}

// NewPending builds a Server with no index published yet: every query
// endpoint answers 503 and /readyz reports not-ready until Publish swaps in
// the first epoch. Live serving uses this shape so the HTTP listener (and
// its probes) can come up while recovery replays the WAL.
func NewPending(cfg Config) *Server {
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = defaultCacheSize
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}
	logger := cfg.Logger
	if logger == nil {
		logger = olog.L()
	}
	s := &Server{
		cache: NewCache(cacheSize),
		pool:  NewPool(cfg.Workers),
		tr:    cfg.Tracer,
		reqs: obs.NewReqTracker(obs.ReqConfig{
			SampleN:       cfg.SampleN,
			SlowThreshold: cfg.SlowThreshold,
			RingSize:      cfg.DebugRing,
		}),
		log:              logger,
		maxBatch:         maxBatch,
		reqTimeout:       cfg.RequestTimeout,
		indexLoadSeconds: cfg.IndexLoadSeconds,
		mmapBytes:        cfg.MmapBytes,
	}
	obs.EnableRuntimeMetrics()
	if cfg.MaxInFlight >= 0 {
		n := cfg.MaxInFlight
		if n == 0 {
			n = defaultMaxInFlight
		}
		s.inflight = make(chan struct{}, n)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/community", s.limited(s.handleCommunity))
	s.mux.HandleFunc("/batch", s.limited(s.handleBatch))
	s.mux.HandleFunc("/membership", s.limited(s.handleMembership))
	s.mux.HandleFunc("/update", s.handleUpdate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	// Probes bypass the admission limiter so readiness and liveness keep
	// answering under query overload; /update has its own backpressure (the
	// bounded update queue), so it is not admission-limited either.
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	// Diagnostics stay reachable under overload: like /healthz and
	// /metrics, /debug/requests bypasses the admission limiter.
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	s.handler = s.recovered(s.mux)
	return s
}

// Close stops the live-update applier, if one is attached, and waits for it
// to finish the batch in progress. It does not close the WAL — the caller
// that opened it owns it. Safe to call on a static server (no-op) and more
// than once.
func (s *Server) Close() {
	if s.live != nil {
		s.live.close()
	}
}

// normalizeK clamps a client-supplied level to the query path's effective
// minimum, so k = -5, 0, and 3 — which all produce the identical answer —
// share one cache entry instead of fragmenting the LRU.
func normalizeK(k int32) int32 {
	if k < core.MinK {
		return core.MinK
	}
	return k
}

// Handler returns the server's HTTP handler for embedding into an existing
// mux or an httptest server.
func (s *Server) Handler() http.Handler { return s.handler }

// limited is the admission middleware for the query endpoints: it sheds
// load with 429 + Retry-After once MaxInFlight requests are being served,
// and imposes the per-request deadline on the request context. Shedding at
// the door costs one channel operation; the alternative — queueing without
// bound — turns overload into memory growth and timeout cascades.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				cLoadShed.Inc()
				w.Header().Set("Retry-After", "1")
				s.fail(w, http.StatusTooManyRequests, "server at capacity (%d requests in flight)", cap(s.inflight))
				return
			}
		}
		if s.reqTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// recovered converts a handler panic into a 500 response and a counter
// increment instead of killing the connection (and, for panics reached
// through the server's own goroutines, the process). The in-flight slot
// and pool slots are released by defers, so a panicking request leaks
// neither.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				cPanicsRecovered.Inc()
				s.fail(w, http.StatusInternalServerError, "internal error: %v", p)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests drain for up to the
// drain timeout, and only then does the call return. onListen (optional)
// receives the bound address — how callers learn the port of ":0".
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	hs := &http.Server{Handler: s.handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if drain <= 0 {
		drain = 10 * time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err = hs.Shutdown(sctx)
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// communityDoc is one community in a JSON response. Size and NumEdges come
// from the hierarchy's precomputed per-community counts; Vertices and Edges
// are materialized only when the client opts in with vertices=1 / edges=1.
type communityDoc struct {
	K        int32   `json:"k"`
	Size     int     `json:"size"`
	NumEdges int     `json:"num_edges"`
	Vertices []int32 `json:"vertices,omitempty"`
	Edges    []int32 `json:"edges,omitempty"`
}

// queryDoc is the answer to one (vertex, k) lookup. K is the normalized
// level the query was answered (and cached) at.
type queryDoc struct {
	Vertex      int32          `json:"vertex"`
	K           int32          `json:"k"`
	Count       int            `json:"count"`
	Cached      bool           `json:"cached"`
	Communities []communityDoc `json:"communities"`
}

func renderQuery(v, k int32, refs []community.Ref, cached, withVertices, withEdges bool) queryDoc {
	doc := queryDoc{Vertex: v, K: k, Count: len(refs), Cached: cached, Communities: make([]communityDoc, len(refs))}
	for i, ref := range refs {
		cd := communityDoc{K: ref.K, Size: int(ref.NumVertices()), NumEdges: int(ref.NumEdges())}
		if withVertices || withEdges {
			c := ref.Community()
			if withVertices {
				cd.Vertices = c.Vertices()
			}
			if withEdges {
				cd.Edges = c.Edges
			}
		}
		doc.Communities[i] = cd
	}
	return doc
}

// lookup answers one query through the cache, computing (and caching) on a
// miss under a reserved pool slot. k must already be normalized. When ctx
// carries a sampled request, the cache probe, pool wait, and hierarchy
// query each record a stage in its trace.
func (s *Server) lookup(ctx context.Context, ep *epoch, v, k int32) ([]community.Ref, bool, error) {
	st := obs.StartStageFromContext(ctx, "cache lookup")
	refs, ok := s.cache.Get(ep.num, v, k)
	st.End()
	if ok {
		return refs, true, nil
	}
	st = obs.StartStageFromContext(ctx, "pool wait")
	got, err := s.pool.Reserve(ctx, 1)
	st.End()
	if err != nil {
		return nil, false, err
	}
	defer s.pool.Release(got)
	if s.testHook != nil {
		s.testHook()
	}
	if err := faults.Inject(siteQuery); err != nil {
		return nil, false, err
	}
	refs = ep.idx.CommunityRefsCtx(ctx, v, k)
	s.cache.Put(ep.num, v, k, refs)
	return refs, false, nil
}

// logReq emits the one structured record every tracked request produces,
// keyed by the same "req-<n>" ID /debug/requests reports. Severity scales
// with outcome: Debug for OK, Warn for 4xx or slow, Error for 5xx — and
// the Enabled check keeps disabled levels free of attribute construction.
func (s *Server) logReq(rq obs.Req, name string, status int, dur time.Duration, info obs.ReqInfo) {
	level := slog.LevelDebug
	if slow := s.reqs.SlowThreshold(); slow > 0 && dur >= slow {
		level = slog.LevelWarn
	}
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	}
	if !s.log.Enabled(context.Background(), level) {
		return
	}
	attrs := []slog.Attr{
		olog.ReqID(rq.IDString()),
		olog.Status(status),
		olog.Duration(dur),
		olog.Vertex(info.Vertex),
		olog.K(info.K),
		olog.CacheHit(info.CacheHit),
	}
	if info.Items > 0 {
		attrs = append(attrs, slog.Int("items", info.Items))
	}
	if info.Err != "" {
		attrs = append(attrs, slog.String("err", info.Err))
	}
	s.log.LogAttrs(context.Background(), level, name, attrs...)
}

func (s *Server) handleCommunity(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	span := s.tr.Start("HTTP /community")
	rq := s.reqs.Begin("/community")
	cCommunityRequests.Inc()
	status := http.StatusOK
	var info obs.ReqInfo
	defer func() {
		dur := rq.Finish(status, info)
		hCommunity.Observe(dur)
		cLatencyNS.Add(dur.Nanoseconds())
		s.logReq(rq, "GET /community", status, dur, info)
	}()
	failf := func(code int, format string, args ...any) {
		status = code
		info.Err = fmt.Sprintf(format, args...)
		s.fail(w, code, "%s", info.Err)
	}
	st := rq.StartStage("parse")
	v, errV := parseInt32(r.URL.Query().Get("v"))
	k, errK := parseInt32(r.URL.Query().Get("k"))
	withVertices := r.URL.Query().Get("vertices") != ""
	withEdges := r.URL.Query().Get("edges") != ""
	st.End()
	if errV != nil {
		failf(http.StatusBadRequest, "bad v: %v", errV)
		return
	}
	if errK != nil {
		failf(http.StatusBadRequest, "bad k: %v", errK)
		return
	}
	ep, err := s.ready()
	if err != nil {
		failf(http.StatusServiceUnavailable, "%v", err)
		return
	}
	if v < 0 || v >= ep.idx.G.NumVertices() {
		failf(http.StatusBadRequest, "vertex %d outside [0, %d)", v, ep.idx.G.NumVertices())
		return
	}
	k = normalizeK(k)
	info.Vertex, info.K = v, k
	refs, cached, err := s.lookup(rq.WithContext(r.Context()), ep, v, k)
	if err != nil {
		failf(http.StatusServiceUnavailable, "query aborted: %v", err)
		return
	}
	info.CacheHit = cached
	st = rq.StartStage("encode")
	writeJSON(w, http.StatusOK, renderQuery(v, k, refs, cached, withVertices, withEdges))
	st.End()
	span.EndItems(1)
}

// membershipDoc is the GET /membership response: the per-level overlapping
// community profile of one vertex, answered from the hierarchy without
// materializing any community.
type membershipDoc struct {
	Vertex     int32         `json:"vertex"`
	MaxK       int32         `json:"max_k"`
	Membership map[int32]int `json:"membership"`
}

func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	span := s.tr.Start("HTTP /membership")
	rq := s.reqs.Begin("/membership")
	cMembershipRequests.Inc()
	status := http.StatusOK
	var info obs.ReqInfo
	defer func() {
		dur := rq.Finish(status, info)
		hMembership.Observe(dur)
		cLatencyNS.Add(dur.Nanoseconds())
		s.logReq(rq, "GET /membership", status, dur, info)
	}()
	failf := func(code int, format string, args ...any) {
		status = code
		info.Err = fmt.Sprintf(format, args...)
		s.fail(w, code, "%s", info.Err)
	}
	st := rq.StartStage("parse")
	v, err := parseInt32(r.URL.Query().Get("v"))
	st.End()
	if err != nil {
		failf(http.StatusBadRequest, "bad v: %v", err)
		return
	}
	ep, err := s.ready()
	if err != nil {
		failf(http.StatusServiceUnavailable, "%v", err)
		return
	}
	if v < 0 || v >= ep.idx.G.NumVertices() {
		failf(http.StatusBadRequest, "vertex %d outside [0, %d)", v, ep.idx.G.NumVertices())
		return
	}
	info.Vertex = v
	if err := faults.Inject(siteQuery); err != nil {
		failf(http.StatusServiceUnavailable, "query aborted: %v", err)
		return
	}
	st = rq.StartStage("hierarchy query")
	doc := membershipDoc{
		Vertex:     v,
		MaxK:       ep.idx.MaxK(v),
		Membership: ep.idx.Membership(v),
	}
	st.End()
	st = rq.StartStage("encode")
	writeJSON(w, http.StatusOK, doc)
	st.End()
	span.EndItems(1)
}

// batchRequest is the POST /batch body.
type batchRequest struct {
	Queries []struct {
		V int32 `json:"v"`
		K int32 `json:"k"`
	} `json:"queries"`
	Vertices bool `json:"vertices,omitempty"`
	Edges    bool `json:"edges,omitempty"`
}

type batchResponse struct {
	Results []queryDoc `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	span := s.tr.Start("HTTP /batch")
	rq := s.reqs.Begin("/batch")
	cBatchRequests.Inc()
	status := http.StatusOK
	var info obs.ReqInfo
	defer func() {
		dur := rq.Finish(status, info)
		hBatch.Observe(dur)
		cLatencyNS.Add(dur.Nanoseconds())
		s.logReq(rq, "POST /batch", status, dur, info)
	}()
	failf := func(code int, format string, args ...any) {
		status = code
		info.Err = fmt.Sprintf(format, args...)
		s.fail(w, code, "%s", info.Err)
	}
	st := rq.StartStage("parse")
	var req batchRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	st.End()
	if err != nil {
		failf(http.StatusBadRequest, "bad body: %v", err)
		return
	}
	info.Items = len(req.Queries)
	if len(req.Queries) == 0 {
		failf(http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > s.maxBatch {
		failf(http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(req.Queries), s.maxBatch)
		return
	}
	ep, err := s.ready()
	if err != nil {
		failf(http.StatusServiceUnavailable, "%v", err)
		return
	}
	n := ep.idx.G.NumVertices()
	for i, q := range req.Queries {
		if q.V < 0 || q.V >= n {
			failf(http.StatusBadRequest, "query %d: vertex %d outside [0, %d)", i, q.V, n)
			return
		}
	}
	// Normalize every k up front, resolve cache hits, collapse duplicate
	// (vertex, k) misses to one computation each, then fan the survivors
	// out through BatchCommunityRefsCtx with parallelism granted by the
	// pool. Normalizing before the dedup key means k=0 and k=3 collapse to
	// one computation and one cache entry.
	norm := make([]int32, len(req.Queries))
	results := make([][]community.Ref, len(req.Queries))
	cached := make([]bool, len(req.Queries))
	var missIdx []int  // original query index of each miss
	var missSlot []int // which missQ entry answers it
	var missQ []community.Query
	slotOf := make(map[int64]int)
	deduped := int64(0)
	st = rq.StartStage("cache lookup")
	for i, q := range req.Queries {
		k := normalizeK(q.K)
		norm[i] = k
		if refs, ok := s.cache.Get(ep.num, q.V, k); ok {
			results[i] = refs
			cached[i] = true
			continue
		}
		key := int64(q.V)<<32 | int64(uint32(k))
		slot, ok := slotOf[key]
		if !ok {
			slot = len(missQ)
			slotOf[key] = slot
			missQ = append(missQ, community.Query{Vertex: q.V, K: k})
		} else {
			deduped++
		}
		missIdx = append(missIdx, i)
		missSlot = append(missSlot, slot)
	}
	st.End()
	if deduped > 0 {
		cBatchDeduped.Add(deduped)
	}
	if len(missQ) > 0 {
		ctx := rq.WithContext(r.Context())
		st = rq.StartStage("pool wait")
		got, err := s.pool.Reserve(ctx, len(missQ))
		st.End()
		if err != nil {
			failf(http.StatusServiceUnavailable, "batch aborted: %v", err)
			return
		}
		// Released by defer, not inline: a panic in the fan-out must not
		// leak pool slots past the recovery middleware.
		defer s.pool.Release(got)
		if s.testHook != nil {
			s.testHook()
		}
		if err := faults.Inject(siteQuery); err != nil {
			failf(http.StatusServiceUnavailable, "batch aborted: %v", err)
			return
		}
		out, err := ep.idx.BatchCommunityRefsCtx(ctx, missQ, got)
		if err != nil {
			failf(http.StatusServiceUnavailable, "batch aborted: %v", err)
			return
		}
		for j, i := range missIdx {
			slot := missSlot[j]
			results[i] = out[slot]
			s.cache.Put(ep.num, missQ[slot].Vertex, missQ[slot].K, out[slot])
		}
	}
	resp := batchResponse{Results: make([]queryDoc, len(req.Queries))}
	for i, q := range req.Queries {
		resp.Results[i] = renderQuery(q.V, norm[i], results[i], cached[i], req.Vertices, req.Edges)
	}
	st = rq.StartStage("encode")
	writeJSON(w, http.StatusOK, resp)
	st.End()
	cBatchQueries.Add(int64(len(req.Queries)))
	span.EndItems(int64(len(req.Queries)))
}

// handleHealthz is the liveness probe: always 200 while the process
// serves, even before the first epoch (readiness is /readyz's job). Beyond
// the index shape it reports the serving epoch, the update pipeline's
// acked-vs-applied sequence gap (staleness), and the canonical state
// checksums as hex strings — uint64 fingerprints would lose precision as
// JSON numbers.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":             "ok",
		"revision":           buildinfo.Revision(),
		"index_load_seconds": s.indexLoadSeconds,
		"mmap_bytes":         s.mmapBytes,
	}
	// Read the applier's sequences before the epoch: the applier publishes
	// an epoch before advancing appliedSeq, so the epoch loaded afterwards
	// reflects at least the reported applied_seq, and a client that waits
	// for applied_seq >= N always sees checksums of state N or later.
	var acked, applied uint64
	if m := s.live; m != nil {
		acked, applied = m.ackedSeq.Load(), m.appliedSeq.Load()
	}
	if ep := s.epoch(); ep != nil {
		doc["epoch"] = ep.num
		doc["applied_seq"] = ep.seq
		doc["vertices"] = ep.idx.G.NumVertices()
		doc["edges"] = ep.idx.G.NumEdges()
		doc["supernodes"] = ep.idx.SG.NumSupernodes()
		doc["superedges"] = ep.idx.SG.NumSuperedges()
		doc["hierarchy_nodes"] = ep.idx.Hierarchy().NumNodes()
		doc["checksums"] = map[string]string{
			"tau":       fmt.Sprintf("%016x", ep.sums.Tau),
			"summary":   fmt.Sprintf("%016x", ep.sums.Summary),
			"hierarchy": fmt.Sprintf("%016x", ep.sums.Hierarchy),
		}
	} else {
		doc["epoch"] = 0
	}
	if m := s.live; m != nil {
		doc["acked_seq"] = acked
		doc["applied_seq"] = applied
		doc["staleness"] = acked - applied
		doc["update_queue_depth"] = len(m.queue)
		doc["update_queue_cap"] = cap(m.queue)
		if msg := m.degraded(); msg != "" {
			doc["updates"] = "degraded: " + msg
		} else {
			doc["updates"] = "ok"
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// instanceGauges snapshots this server's own capacity state — pool
// occupancy, cache fill, admission slots. These live on the Server, not in
// the shared default registry, so two servers in one process (common in
// tests) never fight over one gauge.
func (s *Server) instanceGauges() []obs.GaugeValue {
	gauges := []obs.GaugeValue{
		{Name: "server_pool_in_use", Help: "query pool slots currently reserved", Value: float64(s.pool.InUse())},
		{Name: "server_pool_capacity", Help: "query pool slot capacity", Value: float64(s.pool.Cap())},
		{Name: "server_cache_entries", Help: "entries held by the community LRU cache", Value: float64(s.cache.Len())},
		{Name: "server_cache_capacity", Help: "capacity of the community LRU cache", Value: float64(s.cache.Cap())},
		{Name: "server_index_load_seconds", Help: "wall time spent making the initial index query-ready", Value: s.indexLoadSeconds},
		{Name: "server_mmap_bytes", Help: "bytes of index file memory-mapped into the serving path (0 for heap-decoded)", Value: float64(s.mmapBytes)},
	}
	if s.inflight != nil {
		gauges = append(gauges,
			obs.GaugeValue{Name: "server_inflight", Help: "query requests currently admitted", Value: float64(len(s.inflight))},
			obs.GaugeValue{Name: "server_inflight_limit", Help: "admission limit on concurrent query requests", Value: float64(cap(s.inflight))},
		)
	}
	if m := s.live; m != nil {
		acked, applied := m.ackedSeq.Load(), m.appliedSeq.Load()
		gauges = append(gauges,
			obs.GaugeValue{Name: "server_update_acked_seq", Help: "last WAL sequence durably acked to writers", Value: float64(acked)},
			obs.GaugeValue{Name: "server_update_applied_seq", Help: "last WAL sequence reflected in the serving epoch", Value: float64(applied)},
			obs.GaugeValue{Name: "server_update_staleness", Help: "update batches acked but not yet serving (acked - applied)", Value: float64(acked - applied)},
			obs.GaugeValue{Name: "server_update_queue_depth", Help: "acked update batches waiting for the applier", Value: float64(len(m.queue))},
			obs.GaugeValue{Name: "server_update_queue_capacity", Help: "update queue capacity before 429 shedding", Value: float64(cap(m.queue))},
		)
	}
	return gauges
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	err := obs.WritePrometheus(w, obs.DefaultRegistry(), s.tr)
	if err == nil {
		err = obs.WriteGauges(w, s.instanceGauges())
	}
	if err != nil {
		cRequestErrors.Inc()
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	cRequestErrors.Inc()
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc)
}

func parseInt32(s string) (int32, error) {
	if s == "" {
		return 0, fmt.Errorf("missing parameter")
	}
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}
