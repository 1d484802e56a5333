package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"equitruss"
	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/dynamic"
	"equitruss/internal/graph"
	"equitruss/internal/graphio"
	"equitruss/internal/server"
	"equitruss/internal/wal"
)

// visibleTimeout bounds how long the writer waits for acked batches to
// become visible once it has stopped posting.
const visibleTimeout = 60 * time.Second

// pollGuard is how close to a post's due time the writer stops polling.
const pollGuard = 2 * time.Millisecond

// ack is one acknowledged update batch, times from the round's start. The
// writer is idle until each due time, so how late it wakes is its own
// timer jitter: ack latency runs from Sent, not Due.
type ack struct {
	Seq     uint64
	Ops     wal.Batch
	Due     time.Duration
	Sent    time.Duration
	Acked   time.Duration
	Visible time.Duration
}

// churnStart opens the live server for the pass: OpenLive over a fresh
// state directory (fsync always, update-mode auto) on the live graph, then
// ServeLive on a loopback port. The server stays up across rounds.
func (b *bench) churnStart(p *pass) error {
	if b.liveRef == nil {
		ix, err := equitruss.BuildIndex(b.live, equitruss.Options{Variant: equitruss.Afforest, Threads: b.nproc, PrecomputeHierarchy: true})
		if err != nil {
			return err
		}
		stream, _, err := makeRequests(ix.Index, streamLen, b.opt.seed^0x11fe)
		if err != nil {
			return err
		}
		b.liveRef, b.liveStream, b.liveKey = ix.Index, stream, firstKey(stream)
	}
	p.opts = equitruss.LiveOptions{
		Dir: filepath.Join(b.work, fmt.Sprintf("live%d", b.pass)), SyncPolicy: "always",
		Variant: equitruss.Afforest, Threads: b.nproc,
		UpdateMode: "auto", CompactEvery: compactEvery, Logger: quiet,
	}
	li, err := equitruss.OpenLive(context.Background(), b.live, p.opts)
	if err != nil {
		return err
	}
	srv, err := startServer(func(ctx context.Context, onListen func(net.Addr)) error {
		return equitruss.ServeLive(ctx, li, equitruss.ServeOptions{Addr: "127.0.0.1:0", OnListen: onListen, Logger: quiet})
	})
	if err != nil {
		li.Close()
		return err
	}
	p.li, p.liveSrv = li, srv
	readers := max(1, b.nproc-1)
	p.rc, p.wc = newClient(readers), newClient(1)
	return nil
}

// churnRound posts update batches open-loop beside an open-loop reader for
// sec seconds and waits until every acked batch is visible.
func (b *bench) churnRound(p *pass, sec float64) error {
	readers := max(1, b.nproc-1)
	t0 := time.Now()
	from := mark()
	var read loadRun
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		read = openLoop(p.rc, p.liveSrv.base, b.liveStream, &b.liveCursor, b.w.ChurnReadRPS, dur(sec), 5*time.Second, readers)
	}()
	werr := b.writeLoop(p, sec)
	wg.Wait()
	p.churnD.add(from, mark())
	p.churnWall += time.Since(t0)
	b.tally(read)
	p.reads = append(p.reads, read)
	if werr != nil {
		return werr
	}
	for _, o := range read.Outcomes {
		if o.Sent && o.Err == nil && o.Status == http.StatusOK {
			if err := wellFormed(b.liveStream[o.Req], o.Body); err != nil {
				return fmt.Errorf("answer during churn: %w", err)
			}
		}
	}
	return nil
}

// churnFinish stops the live server, gates its final state against a
// from-scratch rebuild of base plus acked ops, reports the churn metrics,
// replays the applier under tracing, and measures recovery.
func (b *bench) churnFinish(p *pass) error {
	var hz struct {
		Checksums map[string]string `json:"checksums"`
	}
	err := getJSON(p.wc, p.liveSrv.base, "/healthz", &hz)
	p.rc.CloseIdleConnections()
	p.wc.CloseIdleConnections()
	if serr := p.liveSrv.stop(); err == nil {
		err = serr
	}
	p.liveSrv = nil
	if cerr := p.li.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if len(p.acks) == 0 {
		return errors.New("no update batch was acked")
	}
	want, err := rebuild(b.live, p.acks, b.nproc)
	if err != nil {
		return err
	}
	sums := want.Checksums()
	if err := checkServed(hz.Checksums, sums); err != nil {
		return fmt.Errorf("after %d acked batches: %w", len(p.acks), err)
	}

	var ackMS, visMS []float64
	for _, a := range p.acks {
		ackMS = append(ackMS, ms(a.Acked-a.Sent))
		visMS = append(visMS, ms(a.Visible-a.Acked))
	}
	p.m["update_visible_p50_ms"] = metric{quantile(visMS, 0.5), "ms"}
	read := joinRuns(p.reads)
	b.note("update_ack_quantiles", latencySummary(ackMS))
	b.note("update_visible_quantiles", latencySummary(visMS))
	b.note("churn_read_quantiles", kindSummaries(read, b.liveStream))
	if b.w.QueryUnderChurn {
		p.m["query_p50_ms"] = metric{quantile(read.latencies(), 0.5), "ms"}
	}
	d := p.churnD
	incr, full := d.count("server_update_incremental_applies"), d.count("server_update_full_rebuilds")
	hit := ratio(d.count("server_cache_hits"), d.count("server_cache_hits")+d.count("server_cache_misses"))
	// The applier's headroom: its busy time (publish cycles, from the
	// server's histogram) against the churn wall time, and the batch rate
	// it could sustain at that cost against the rate the writer offers.
	busy := float64(d.hist["server_applier_rebuild"].SumNS) / 1e9
	capacity := ratio(float64(len(p.acks)), busy)
	b.note("churn", map[string]any{
		"acked_batches": len(p.acks), "reads": read.sent(),
		"incremental_publishes": incr, "full_rebuilds": full,
		"incremental_fallbacks":   d.count("server_update_incremental_fallbacks"),
		"compactions":             d.count("wal_compactions"),
		"cache_hit_ratio":         hit,
		"staleness_max":           p.staleMax,
		"applier_busy_share":      ratio(busy, p.churnWall.Seconds()),
		"applier_capacity_bps":    capacity,
		"write_bps_over_capacity": ratio(b.w.ChurnWriteBPS, capacity),
	})
	b.layer("server.update_handler_p90_ms", ms(d.quantile("server_update_request", 0.9)), "ms")
	b.layer("wal.fsyncs", d.count("wal_fsyncs"), "count")
	b.layer("server.applier_publish_p50_ms", ms(d.quantile("server_applier_rebuild", 0.5)), "ms")
	b.layer("server.applier_publish_p90_ms", ms(d.quantile("server_applier_rebuild", 0.9)), "ms")
	b.layer("server.staleness_max", float64(p.staleMax), "count")
	b.layer("server.incremental_ratio", ratio(incr, incr+full), "ratio")
	b.layer("community.region_edges_per_batch", ratio(d.count("community_incremental_region_edges"), d.count("community_incremental_applies")), "count")
	b.layer("server.churn_cache_hit_ratio", hit, "ratio")
	if b.tr != nil {
		if err := b.replayApplier(p.acks); err != nil {
			return err
		}
	}
	return b.recoverPhase(p, want, sums)
}

// writeLoop posts the next sec·rate update batches, one per due time (open
// loop at the workload's write rate), and between posts polls /readyz to
// stamp the moment each acked batch's sequence is covered by the serving
// epoch. It returns once every acked batch is visible.
func (b *bench) writeLoop(p *pass, sec float64) error {
	c, base := p.wc, p.liveSrv.base
	rate := b.w.ChurnWriteBPS
	n := max(1, min(int(math.Round(rate*sec)), len(b.updates)-p.posted))
	var pending []int
	start := time.Now()
	for i := 0; i < n || len(pending) > 0; {
		now := time.Since(start)
		if i < n {
			due := time.Duration(float64(i) / rate * 1e9)
			if now >= due {
				b.attempted++
				batch := b.updates[p.posted]
				p.posted++
				sent := time.Since(start)
				status, body, err := do(c, base, request{Path: "/update", Body: updateBody(batch)})
				at := time.Since(start)
				var resp struct {
					Seq   uint64 `json:"seq"`
					Acked bool   `json:"acked"`
				}
				if err == nil && status == http.StatusOK {
					err = json.Unmarshal(body, &resp)
				}
				if err != nil || status != http.StatusOK || !resp.Acked {
					b.failed++
				} else {
					p.acks = append(p.acks, ack{Seq: resp.Seq, Ops: batch, Due: due, Sent: sent, Acked: at})
					pending = append(pending, len(p.acks)-1)
				}
				i++
				continue
			}
		} else if now > dur(sec)+visibleTimeout {
			return fmt.Errorf("%d acked batches not visible after %v", len(pending), visibleTimeout)
		}
		// Poll only when a poll cannot delay the next post: a post due
		// within pollGuard waits for its due time instead.
		untilDue := time.Duration(math.MaxInt64)
		if i < n {
			untilDue = time.Duration(float64(i)/rate*1e9) - now
		}
		if len(pending) == 0 || untilDue < pollGuard {
			time.Sleep(min(time.Millisecond, untilDue))
			continue
		}
		var rz struct {
			AppliedSeq uint64 `json:"applied_seq"`
		}
		if err := getJSON(c, base, "/readyz", &rz); err != nil {
			return err
		}
		at := time.Since(start)
		if last := p.acks[len(p.acks)-1].Seq; last > rz.AppliedSeq && last-rz.AppliedSeq > p.staleMax {
			p.staleMax = last - rz.AppliedSeq
		}
		kept := pending[:0]
		for _, j := range pending {
			if p.acks[j].Seq <= rz.AppliedSeq {
				p.acks[j].Visible = at
			} else {
				kept = append(kept, j)
			}
		}
		pending = kept
		time.Sleep(time.Millisecond)
	}
	return nil
}

// updateBody renders a batch as a POST /update body.
func updateBody(batch wal.Batch) []byte {
	body := []byte(`{"ops":[`)
	for i, op := range batch {
		if i > 0 {
			body = append(body, ',')
		}
		if op.Del {
			body = fmt.Appendf(body, `{"op":"delete","u":%d,"v":%d}`, op.U, op.V)
		} else {
			body = fmt.Appendf(body, `{"u":%d,"v":%d}`, op.U, op.V)
		}
	}
	return append(body, "]}"...)
}

// rebuild builds the index of base plus the acked batches from scratch —
// plain edge-set replay and a full static build, sharing nothing with the
// live server's incremental maintenance.
func rebuild(base *graph.Graph, acks []ack, threads int) (*equitruss.Index, error) {
	set := make(map[graph.Edge]struct{}, base.NumEdges())
	for _, e := range base.Edges() {
		set[e.Canonical()] = struct{}{}
	}
	for _, a := range acks {
		for _, op := range a.Ops {
			e := graph.Edge{U: op.U, V: op.V}.Canonical()
			if op.Del {
				delete(set, e)
			} else {
				set[e] = struct{}{}
			}
		}
	}
	edges := make([]graph.Edge, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	g, err := graph.FromEdgeList(edges, base.NumVertices())
	if err != nil {
		return nil, err
	}
	return equitruss.BuildIndex(g, equitruss.Options{Variant: equitruss.Afforest, Threads: threads, PrecomputeHierarchy: true})
}

// checkServed compares the checksums /healthz served with those of the
// from-scratch rebuild.
func checkServed(served map[string]string, want community.Checksums) error {
	if w := hexSums(want); !reflect.DeepEqual(served, w) {
		return fmt.Errorf("served checksums %v differ from the rebuild's %v", served, w)
	}
	return nil
}

// hexSums renders checksums the way /healthz does.
func hexSums(s community.Checksums) map[string]string {
	return map[string]string{
		"tau":       fmt.Sprintf("%016x", s.Tau),
		"summary":   fmt.Sprintf("%016x", s.Summary),
		"hierarchy": fmt.Sprintf("%016x", s.Hierarchy),
	}
}

// replayApplier replays the acked batch stream in-process, one applier
// cycle per batch, through each layer's public functions: WAL append
// (fsync always), dynamic-graph apply, incremental maintenance (with the
// applier's full-rebuild fallback), checksums, and server publish.
func (b *bench) replayApplier(acks []ack) error {
	lg, err := wal.Open(filepath.Join(b.work, "replay.wal"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer lg.Close()
	dyn := dynamic.FromStatic(b.live, b.liveRef.SG.Tau)
	dyn.TrackDeltas(true)
	maint := community.NewMaintainer(b.liveRef)
	srv := server.NewPending(server.Config{Logger: quiet})
	defer srv.Close()
	srv.Publish(b.liveRef, 0)
	tr := b.tr
	stages := map[string][]float64{}
	timed := func(name string, root int, fn func() error) error {
		sp := tr.begin(name, root)
		err := fn()
		stages[name] = append(stages[name], ms(tr.end(sp)))
		return err
	}
	fallbacks := 0
	for _, a := range acks {
		root := tr.begin("applier.cycle", 0)
		var idx *community.Index
		err := timed("wal.append", root, func() error {
			_, err := lg.Append(a.Ops)
			return err
		})
		if err == nil {
			err = timed("dynamic.apply", root, func() error {
				for _, op := range a.Ops {
					if op.Del {
						dyn.DeleteEdge(op.U, op.V)
					} else if _, err := dyn.InsertEdge(op.U, op.V); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err == nil {
			err = timed("community.maintain", root, func() error {
				var aerr error
				idx, _, aerr = maint.Apply(community.EdgeDelta(dyn.Delta()), 0.2)
				if aerr != nil {
					fallbacks++
					g, tau, err := dyn.ToStatic()
					if err != nil {
						return err
					}
					sg, _, err := core.BuildCtx(context.Background(), g, tau, core.VariantAfforest, b.nproc, nil)
					if err != nil {
						return err
					}
					idx = community.NewIndex(g, sg)
					maint.Reset(idx)
				}
				dyn.ResetDelta()
				return nil
			})
		}
		if err == nil {
			err = timed("community.checksums", root, func() error {
				_ = idx.Checksums()
				return nil
			})
		}
		if err == nil {
			err = timed("server.publish", root, func() error {
				srv.Publish(idx, a.Seq)
				return nil
			})
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("applier replay: %w", err)
		}
	}
	b.layer("wal.append_p90_ms", quantile(stages["wal.append"], 0.9), "ms")
	b.layer("dynamic.apply_ms", median(stages["dynamic.apply"]), "ms")
	b.layer("community.maintain_ms", median(stages["community.maintain"]), "ms")
	b.layer("community.checksums_ms", median(stages["community.checksums"]), "ms")
	b.layer("server.publish_ms", median(stages["server.publish"]), "ms")
	b.note("applier_replay_fallbacks", fallbacks)
	return nil
}

// recoverPhase restarts the live server from the churned state directory
// several times — OpenLive over snapshot + WAL tail, ServeLive, first GET
// /community — and reports the median time to a correct first answer,
// after untimed warm-ups. Every recovered index must equal the rebuild. A
// traced pass times the same recoveries and, after each timed one, makes
// OpenLive's recovery steps one layer at a time for the breakdown.
func (b *bench) recoverPhase(p *pass, want *equitruss.Index, sums community.Checksums) error {
	var times []float64
	samples := map[string][]float64{}
	for i := 0; i < warmups+b.w.Recovers; i++ {
		settle()
		b.attempted++
		d, body, got, err := b.recoverOnce(p.opts)
		if err == nil && got != sums {
			err = fmt.Errorf("recovered checksums %+v differ from the rebuild's %+v", got, sums)
		}
		if err == nil {
			err = checkAnswer(want.Index, communityRequest(b.liveKey, false), body)
		}
		if err != nil {
			b.failed++
			return fmt.Errorf("recovery %d: %w", i, err)
		}
		if i < warmups {
			continue
		}
		times = append(times, secs(d))
		if b.tr == nil {
			continue
		}
		settle()
		lay, got, err := b.recoverLayers(p.opts.Dir)
		if err == nil && got != sums {
			err = fmt.Errorf("checksums %+v differ from the rebuild's %+v", got, sums)
		}
		if err != nil {
			return fmt.Errorf("recovery breakdown %d: %w", i, err)
		}
		for k, v := range lay {
			samples[k] = append(samples[k], v)
		}
	}
	p.m["recover_s"] = metric{median(times), "s"}
	b.note("recover_s_samples", times)
	for _, name := range []string{"graphio.snapshot_read_s", "wal.replay_s", "core.recover_build_s", "community.recover_hierarchy_s"} {
		b.layer(name, median(samples[name]), "s")
	}
	return nil
}

// recoverOnce is one recovery through the public entry points.
func (b *bench) recoverOnce(opts equitruss.LiveOptions) (time.Duration, []byte, community.Checksums, error) {
	t0 := time.Now()
	root := b.tr.begin("recover", 0)
	defer b.tr.end(root)
	li, err := equitruss.OpenLive(context.Background(), b.live, opts)
	if err != nil {
		return 0, nil, community.Checksums{}, err
	}
	srv, err := startServer(func(ctx context.Context, onListen func(net.Addr)) error {
		return equitruss.ServeLive(ctx, li, equitruss.ServeOptions{Addr: "127.0.0.1:0", OnListen: onListen, Logger: quiet})
	})
	if err != nil {
		li.Close()
		return 0, nil, community.Checksums{}, err
	}
	d, body, err := firstAnswer(srv.base, b.liveKey, t0)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if cerr := li.Close(); err == nil {
		err = cerr
	}
	return d, body, li.Index.Checksums(), err
}

// recoverLayers makes OpenLive's recovery steps one layer at a time under
// spans — snapshot read, WAL replay (with OpenLive's gap check) into the
// dynamic graph, summary build, hierarchy — and returns the per-layer
// times and the recovered index's checksums. It serves nothing: it is the
// traced pass's breakdown of recover_s, which recoverOnce measures.
func (b *bench) recoverLayers(dir string) (map[string]float64, community.Checksums, error) {
	tr := b.tr
	lay := map[string]float64{}
	root := tr.begin("recover.layers", 0)
	defer tr.end(root)
	sp := tr.begin("graphio.snapshot_read", root)
	snap, err := graphio.ReadSnapshotFile(filepath.Join(dir, "snapshot.eqs"))
	lay["graphio.snapshot_read_s"] = secs(tr.end(sp))
	var dyn *dynamic.Graph
	var from uint64
	sp = tr.begin("dynamic.from_static", root)
	switch {
	case err == nil:
		dyn, from = dynamic.FromStatic(snap.G, snap.Tau), snap.Seq
	case errors.Is(err, fs.ErrNotExist):
		dyn = dynamic.FromStatic(b.live, b.liveRef.SG.Tau)
	default:
		return nil, community.Checksums{}, err
	}
	tr.end(sp)
	sp = tr.begin("wal.replay", root)
	lg, err := wal.Open(filepath.Join(dir, "wal.log"), wal.Options{})
	if err != nil {
		return nil, community.Checksums{}, err
	}
	expect := from
	err = lg.Replay(from, func(seq uint64, batch wal.Batch) error {
		if seq != expect+1 {
			return fmt.Errorf("WAL gap: state at seq %d, next record is %d", expect, seq)
		}
		expect = seq
		for _, op := range batch {
			if op.Del {
				dyn.DeleteEdge(op.U, op.V)
			} else if _, err := dyn.InsertEdge(op.U, op.V); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	lay["wal.replay_s"] = secs(tr.end(sp))
	if err != nil {
		return nil, community.Checksums{}, err
	}
	sp = tr.begin("core.recover_build", root)
	g, tau, err := dyn.ToStatic()
	var sg *core.SummaryGraph
	if err == nil {
		sg, _, err = core.BuildCtx(context.Background(), g, tau, core.VariantAfforest, b.nproc, nil)
	}
	lay["core.recover_build_s"] = secs(tr.end(sp))
	if err != nil {
		return nil, community.Checksums{}, err
	}
	sp = tr.begin("community.recover_hierarchy", root)
	idx := community.NewIndex(g, sg)
	_, err = idx.PrepareHierarchy(context.Background(), 0, nil)
	lay["community.recover_hierarchy_s"] = secs(tr.end(sp))
	if err != nil {
		return nil, community.Checksums{}, err
	}
	return lay, idx.Checksums(), nil
}

// firstAnswer fetches one community answer over a fresh connection and
// returns the time since t0 and the body.
func firstAnswer(base string, k key, t0 time.Time) (time.Duration, []byte, error) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	status, body, err := do(c, base, communityRequest(k, false))
	d := time.Since(t0)
	if err == nil && status != http.StatusOK {
		err = errors.New("first answer: status " + strconv.Itoa(status))
	}
	return d, body, err
}
