package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"time"

	"equitruss"
	"equitruss/internal/community"
)

// probeMaxSteps bounds the capacity search's upward doubling.
const probeMaxSteps = 10

// serveStart mmap-loads the reference build's v3 index, serves it over a
// loopback listener and warms it up. The server stays up across rounds.
func (b *bench) serveStart(p *pass, warm float64) error {
	ix, stats, err := equitruss.OpenIndexFile(b.indexPath("n"), b.loaded, equitruss.VerifyEager)
	if err != nil {
		return err
	}
	srv, err := startServer(func(ctx context.Context, onListen func(net.Addr)) error {
		return equitruss.Serve(ctx, ix, equitruss.ServeOptions{
			Addr: "127.0.0.1:0", OnListen: onListen, Logger: quiet,
			IndexLoadSeconds: stats.Seconds, MmapBytes: stats.MmapBytes,
		})
	})
	if err != nil {
		return err
	}
	p.srv, p.idx, p.client = srv, ix.Index, newClient(b.nproc)
	p.search = &capSearch{rate: probeStartRPS, bisections: bisections}
	p.serveRun(b, openLoop(p.client, p.srv.base, b.stream, &b.cursor, nominalRPS, dur(warm), 5*time.Second, b.nproc))
	return nil
}

// serveRun records one open-loop run on the static server.
func (p *pass) serveRun(b *bench, r loadRun) loadRun {
	b.tally(r)
	p.verify = append(p.verify, r)
	return r
}

// serveRound runs one nominal-rate window (query_p50_ms, unless the
// workload takes it from its churn reader), one closed-loop burst
// (query_max_rps) and up to probes steps of the capacity search.
func (b *bench) serveRound(p *pass, nominal float64, probes int) error {
	settle()
	from := mark()
	first := b.cursor
	nom := p.serveRun(b, openLoop(p.client, p.srv.base, b.stream, &b.cursor, nominalRPS, dur(nominal), 5*time.Second, b.nproc))
	p.serveD.add(from, mark())
	p.nominal = append(p.nominal, nom)
	p.nominalFirst = append(p.nominalFirst, first)
	sat, rps := closedLoop(p.client, p.srv.base, b.stream, &b.cursor, dur(b.w.SaturateSeconds), b.nproc)
	p.serveRun(b, sat)
	p.maxRPS = append(p.maxRPS, rps)
	for i := 0; i < probes; i++ {
		if err := b.probe(p); err != nil || p.search.done() {
			return err
		}
	}
	return nil
}

// probe runs the capacity search's next probe. A rate that misses the
// limit is probed once more before the search believes it: a burst of
// outside load during one probe must not end the doubling early.
func (b *bench) probe(p *pass) error {
	rate, ok := p.search.next()
	if !ok {
		return nil
	}
	run := func() loadRun {
		return p.serveRun(b, openLoop(p.client, p.srv.base, b.stream, &b.cursor, rate, dur(b.w.ProbeSeconds), queryLimitP99, b.nproc))
	}
	r := run()
	if !r.meetsLimit() {
		p.search.table = append(p.search.table, probeRow(rate, r, "retried"))
		r = run()
	}
	p.search.record(rate, r)
	return nil
}

// probeRow is one probe's line in the artifact's probe table.
func probeRow(rate float64, r loadRun, verdict string) map[string]any {
	lat := r.latencies()
	return map[string]any{
		"rate": rate, "sent": r.sent(), "planned": r.Planned, "failed": r.failures(),
		"p50_ms": quantile(lat, 0.5), "p99_ms": quantile(lat, 0.99), "verdict": verdict,
	}
}

// serveFinish completes the capacity search, stops the server, checks
// every answer against the reference and reports the serve metrics.
func (b *bench) serveFinish(p *pass) error {
	for !p.search.done() {
		if err := b.probe(p); err != nil {
			return err
		}
	}
	p.client.CloseIdleConnections()
	err := p.srv.stop()
	p.srv = nil
	if err != nil {
		return err
	}
	for _, r := range p.verify {
		if err := b.verifyRun(r); err != nil {
			return err
		}
	}
	capRPS := p.search.result()
	if capRPS <= 0 {
		return fmt.Errorf("no probed rate met the p99 limit of %v", queryLimitP99)
	}
	b.note("query_capacity_rps", capRPS)
	b.note("capacity_probes", p.search.table)
	p.m["query_max_rps"] = metric{median(p.maxRPS), "1/s"}
	b.note("query_max_rps_samples", p.maxRPS)
	b.note("nominal_rps_over_capacity", ratio(nominalRPS, capRPS))
	b.note("nominal_rps_over_max_rps", ratio(nominalRPS, median(p.maxRPS)))

	nom := joinRuns(p.nominal)
	if !b.w.QueryUnderChurn {
		p.m["query_p50_ms"] = metric{quantile(nom.latencies(), 0.5), "ms"}
	}
	d := p.serveD
	hit := ratio(d.count("server_cache_hits"), d.count("server_cache_hits")+d.count("server_cache_misses"))
	b.note("serve_cache_hit_ratio", hit)
	b.note("serve_nominal_requests", nom.sent())
	b.note("serve_latency_quantiles", kindSummaries(nom, b.stream))
	if b.layers == nil {
		return nil
	}
	b.layer("server.handler_p50_ms", ms(d.quantile("server_community_request", 0.5)), "ms")
	b.layer("server.handler_p99_ms", ms(d.quantile("server_community_request", 0.99)), "ms")
	b.layer("server.cache_hit_ratio", hit, "ratio")
	b.layer("server.load_shed", d.count("server_load_shed"), "count")
	b.layer("server.batch_dedupe_ratio", ratio(d.count("server_batch_deduped"), d.count("server_batch_queries")), "ratio")
	b.layer("runtime.gc_cycles", d.gc, "count")
	b.layer("runtime.alloc_kb_per_query", ratio(d.alloc/1024, float64(nom.sent())), "KB")
	b.layer("generator.lag_p99_ms", quantile(nom.lags(), 0.99), "ms")
	var lat []float64
	for i, r := range p.nominal {
		l, err := replayDirect(p.idx, b.stream, p.nominalFirst[i], r.Planned)
		if err != nil {
			return err
		}
		lat = append(lat, l...)
	}
	b.layer("community.query_p50_us", quantile(lat, 0.5), "us")
	b.layer("community.query_p99_us", quantile(lat, 0.99), "us")
	return nil
}

// joinRuns concatenates the outcomes of several runs.
func joinRuns(runs []loadRun) loadRun {
	var out loadRun
	for _, r := range runs {
		out.Planned += r.Planned
		out.Outcomes = append(out.Outcomes, r.Outcomes...)
	}
	return out
}

// capSearch finds the highest offered rate that meets the latency limit,
// one probe at a time so probes can be spread over the run: it doubles
// from the start rate (halving first if the start rate already fails)
// until a rate fails, bisects the last passing/failing pair geometrically,
// and finally interpolates where p99 crosses the limit between the two
// closest probes (log-log), so the capacity is a measured value rather
// than a grid point. Each probe's p50/p99 is recorded.
type capSearch struct {
	rate, lo, hi    float64
	bisections      int
	steps, bisected int
	p99             map[float64]float64
	table           []map[string]any
}

// next returns the rate to probe, or false when the search is over.
func (c *capSearch) next() (float64, bool) {
	switch {
	case c.done():
		return 0, false
	case c.hi == 0:
		return c.rate, true
	default:
		return math.Sqrt(c.lo * c.hi), true
	}
}

func (c *capSearch) done() bool {
	if c.hi == 0 {
		return c.steps >= probeMaxSteps
	}
	return c.bisected >= c.bisections
}

// record feeds one probe's outcome back into the search.
func (c *capSearch) record(rate float64, r loadRun) {
	ok := r.meetsLimit()
	if c.p99 == nil {
		c.p99 = map[float64]float64{}
	}
	c.p99[rate] = quantile(r.latencies(), 0.99)
	if !ok && c.p99[rate] <= ms(queryLimitP99) {
		// Failed by backlog or errors: count it as twice the limit.
		c.p99[rate] = 2 * ms(queryLimitP99)
	}
	verdict := "fail"
	if ok {
		verdict = "pass"
	}
	c.table = append(c.table, probeRow(rate, r, verdict))
	if c.hi == 0 {
		c.steps++
		switch {
		case ok:
			c.lo, c.rate = rate, rate*2
		case c.lo == 0:
			c.rate = rate / 2
		default:
			c.hi = rate
		}
		return
	}
	c.bisected++
	if ok {
		c.lo = rate
	} else {
		c.hi = rate
	}
}

// result is the interpolated capacity (the last passing rate when the
// search never found a failing one, 0 when nothing passed).
func (c *capSearch) result() float64 {
	if c.hi == 0 || c.lo == 0 {
		return c.lo
	}
	limit := ms(queryLimitP99)
	frac := (math.Log(limit) - math.Log(c.p99[c.lo])) / (math.Log(c.p99[c.hi]) - math.Log(c.p99[c.lo]))
	frac = math.Max(0, math.Min(1, frac))
	return c.lo * math.Pow(c.hi/c.lo, frac)
}

// replayDirect replays n requests of the stream from first as direct
// in-process calls into the community layer (no HTTP, no cache) and
// returns each request's time in microseconds.
func replayDirect(idx *community.Index, stream []request, first, n int) ([]float64, error) {
	ctx := context.Background()
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		r := stream[(first+i)%len(stream)]
		t0 := time.Now()
		switch r.Kind {
		case reqCommunity:
			_ = idx.CommunityRefs(r.Key.V, r.Key.K)
		case reqCommunityVerts:
			for _, ref := range idx.CommunityRefs(r.Key.V, r.Key.K) {
				_ = ref.Community().Vertices()
			}
		case reqMembership:
			_, _ = idx.MaxK(r.Key.V), idx.Membership(r.Key.V)
		case reqBatch:
			qs := make([]community.Query, len(r.Keys))
			for j, k := range r.Keys {
				qs[j] = community.Query{Vertex: k.V, K: k.K}
			}
			if _, err := idx.BatchCommunityRefsCtx(ctx, qs, 1); err != nil {
				return nil, err
			}
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	return lat, nil
}

func dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
