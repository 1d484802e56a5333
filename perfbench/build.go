package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"time"

	"equitruss"
	"equitruss/internal/community"
	"equitruss/internal/core"
	"equitruss/internal/graph"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

// warmups is how many restarts or recoveries run, checked but untimed,
// before the timed ones: the first ones pay for page-cache and heap growth
// that later ones do not.
const warmups = 2

// directSample is how many keys the build gate checks against
// DirectCommunities.
const directSample = 8

// directMaxSize caps the summed community size of a sampled key, so the
// gate's member-by-member comparison stays cheap.
const directMaxSize = 2000

// buildOut is one build: the graph as loaded, its summary, and — for a
// traced build — the per-layer figures.
type buildOut struct {
	g      *graph.Graph
	sg     *core.SummaryGraph
	layers map[string]float64
}

// indexPath is the v3 index file a build at this thread label writes.
func (b *bench) indexPath(label string) string {
	return filepath.Join(b.work, "index-"+label+".eqi")
}

// buildRound runs the `equitruss build -out` path — LoadEdgeList,
// BuildSummary (Afforest, auto kernels), v3 SaveIndexFile — once at nproc
// threads and once at 1 thread. The first and last pairs of a pass are
// gated: equal checksums, equal to the reference (the run's first pair
// becomes it), and — on the last pair — sampled answers equal to
// DirectCommunities.
func (b *bench) buildRound(p *pass, first, last bool) error {
	for _, label := range []string{"n", "1"} {
		threads := b.nproc
		if label == "1" {
			threads = 1
		}
		settle()
		b.attempted++
		a0 := allocBytes()
		t0 := time.Now()
		out, err := b.buildOnce(threads, b.indexPath(label))
		d := time.Since(t0)
		alloc := allocBytes() - a0
		if err != nil {
			return fmt.Errorf("build at %d threads: %w", threads, err)
		}
		p.buildT[label] = append(p.buildT[label], secs(d))
		if label == "n" {
			p.allocN = append(p.allocN, float64(alloc)/(1<<20))
		}
		for name, v := range out.layers {
			p.buildLay[label+"/"+name] = append(p.buildLay[label+"/"+name], v)
		}
		p.builds[label] = out
	}
	if !first && !last {
		return nil
	}
	n, one := p.builds["n"], p.builds["1"]
	if n.g.NumEdges() != b.g.NumEdges() {
		return fmt.Errorf("loaded graph has %d edges, generated %d", n.g.NumEdges(), b.g.NumEdges())
	}
	ixN, ix1 := community.NewIndex(n.g, n.sg), community.NewIndex(one.g, one.sg)
	sumsN, sums1 := ixN.Checksums(), ix1.Checksums()
	if sumsN != sums1 {
		return fmt.Errorf("nproc build checksums %+v differ from 1-thread build %+v", sumsN, sums1)
	}
	if b.ref == nil {
		b.loaded, b.ref, b.refSums = n.g, ixN, sumsN
		stream, space, err := makeRequests(b.ref, streamLen, b.opt.seed)
		if err != nil {
			return err
		}
		b.stream, b.firstKey = stream, firstKey(stream)
		b.art["key_space"] = space
		b.art["stream_len"] = len(stream)
	} else if sumsN != b.refSums {
		return fmt.Errorf("build checksums %+v differ from the reference %+v", sumsN, b.refSums)
	}
	if !last {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(b.opt.seed) ^ int64(len(p.buildT["n"]))))
	keys := make([]key, 0, directSample)
	for len(keys) < directSample {
		r := b.stream[rng.Intn(len(b.stream))]
		if (r.Kind == reqCommunity || r.Kind == reqCommunityVerts) && totalSize(b.ref, r.Key) <= directMaxSize {
			keys = append(keys, r.Key)
		}
	}
	if err := checkDirect(ixN, n.g, n.sg.Tau, keys); err != nil {
		return fmt.Errorf("index answer differs from the direct oracle: %w", err)
	}
	return nil
}

// buildMetrics turns the pass's build samples into metrics.
func (b *bench) buildMetrics(p *pass) {
	p.m["build_s"] = metric{median(p.buildT["n"]), "s"}
	p.m["build_t1_s"] = metric{median(p.buildT["1"]), "s"}
	p.m["build_alloc_mb"] = metric{median(p.allocN), "MB"}
	b.note("build_s_samples", p.buildT)
	b.note("build_alloc_mb_samples", p.allocN)
	b.note("threads", map[string]int{"n": b.nproc, "1": 1})
	for _, name := range []string{
		"graphio.load_edgelist_s", "triangle.support_s", "truss.peel_s", "core.init_s", "core.spnode_s",
		"core.spedge_s", "core.smgraph_s", "core.remap_s", "graphio.save_v3_s",
		"triangle.alloc_mb", "truss.alloc_mb", "core.alloc_mb", "graphio.alloc_mb",
		"triangle.triangles", "truss.support_decrements", "core.spnode_sample_hit_ratio",
		"core.spnode_cas_failures", "core.smgraph_keep_ratio", "build.span_coverage", "build.other_s",
	} {
		b.layer(name, median(p.buildLay["n/"+name]), layerUnit(name))
	}
	for _, name := range []string{"triangle.support", "truss.peel", "core.spnode", "core.spedge", "core.smgraph"} {
		b.layer(name+"_t1_s", median(p.buildLay["1/"+name+"_s"]), "s")
	}
}

// buildOnce performs one build along the `equitruss build -out` path:
// LoadEdgeList, the three stages BuildSummary runs for the Afforest variant
// with auto kernels (SupportsKernelCtx, DecomposeKernelCtx, core.BuildCtx —
// the same calls with the same arguments), and the v3 SaveIndexFile. The
// stages are called one at a time so that a traced pass can put a span and
// an allocation delta around each; untraced, the tracer is nil and step
// only makes the call, so both passes run the same code.
func (b *bench) buildOnce(threads int, path string) (buildOut, error) {
	ctx := context.Background()
	tr := b.tr
	lay := map[string]float64{}
	var before snapshot
	if tr != nil {
		before = mark()
	}
	root := tr.begin(fmt.Sprintf("build.threads%d", threads), 0)
	step := func(name, allocKey string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		sp := tr.begin(name, root)
		a0 := allocBytes()
		err := fn()
		lay[allocKey] += float64(allocBytes()-a0) / (1 << 20)
		lay[name+"_s"] = secs(tr.end(sp))
		return err
	}
	var g *graph.Graph
	var sup, tau []int32
	var sg *core.SummaryGraph
	var tm core.Timings
	err := step("graphio.load_edgelist", "graphio.alloc_mb", func() (err error) {
		g, err = equitruss.LoadEdgeList(b.edgePath)
		return err
	})
	if err == nil {
		err = step("triangle.support", "triangle.alloc_mb", func() (err error) {
			sup, err = triangle.SupportsKernelCtx(ctx, g, triangle.KernelAuto, threads, nil)
			return err
		})
	}
	if err == nil {
		err = step("truss.peel", "truss.alloc_mb", func() (err error) {
			tau, _, err = truss.DecomposeKernelCtx(ctx, g, sup, truss.PeelAuto, threads, nil)
			return err
		})
	}
	coreID := 0
	if err == nil {
		err = step("core", "core.alloc_mb", func() (err error) {
			sg, tm, err = core.BuildCtx(ctx, g, tau, core.VariantAfforest, threads, nil)
			return err
		})
		if tr != nil {
			coreID = len(tr.spans)
		}
	}
	if err == nil {
		err = step("graphio.save_v3", "graphio.alloc_mb", func() error {
			return equitruss.SaveIndexFile(path, sg)
		})
	}
	total := tr.end(root)
	if err != nil {
		return buildOut{}, err
	}
	if tr == nil {
		return buildOut{g: g, sg: sg}, nil
	}

	// The core stages' times come from the Timings BuildCtx returns, laid
	// end to end under the core span.
	at := tr.spans[coreID-1].Start
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"core.init", tm.Init}, {"core.spnode", tm.SpNode}, {"core.spedge", tm.SpEdge}, {"core.smgraph", tm.SmGraph}, {"core.remap", tm.SpNodeRemap}} {
		at = tr.add(st.name, coreID, at, st.d)
		lay[st.name+"_s"] = secs(st.d)
	}
	d := newDeltas()
	d.add(before, mark())
	var triangles int64
	for _, s := range sup {
		triangles += int64(s)
	}
	lay["triangle.triangles"] = float64(triangles / 3)
	lay["truss.support_decrements"] = d.count("truss_support_decrements")
	lay["core.spnode_sample_hit_ratio"] = ratio(d.count("spnode_afforest_sample_hits"), d.count("spnode_afforest_sample_total"))
	lay["core.spnode_cas_failures"] = d.count("spnode_hook_cas_failures")
	lay["core.smgraph_keep_ratio"] = ratio(d.count("smgraph_superedges_final"), d.count("spedge_emitted"))
	cover := tr.childCover(root)
	lay["build.span_coverage"] = ratio(cover, ms(total))
	lay["build.other_s"] = (ms(total) - cover) / 1e3
	return buildOut{g: g, sg: sg, layers: lay}, nil
}

// layerUnit names the unit a per-layer metric is reported in.
func layerUnit(name string) string {
	switch {
	case len(name) > 2 && name[len(name)-2:] == "_s":
		return "s"
	case len(name) > 3 && name[len(name)-3:] == "_mb":
		return "MB"
	case len(name) > 6 && name[len(name)-6:] == "_ratio", name == "build.span_coverage", name == "restart.span_coverage":
		return "ratio"
	}
	return "count"
}

// restartRound times the restart path — LoadEdgeList, OpenIndexFile (v3
// mmap, eager verify), server publish, first GET /community over loopback —
// count times, after the run's untimed warm-ups. Every restarted index
// must equal the reference and answer correctly.
func (b *bench) restartRound(p *pass, count int) error {
	for i := 0; i < count; i++ {
		settle()
		b.attempted++
		d, lay, sums, err := b.restartOnce()
		if err != nil {
			return err
		}
		if sums != b.refSums {
			return fmt.Errorf("restarted index checksums %+v differ from the build's %+v", sums, b.refSums)
		}
		if p.restarts++; p.restarts <= warmups {
			continue
		}
		p.restartT = append(p.restartT, secs(d))
		for k, v := range lay {
			p.restartLay[k] = append(p.restartLay[k], v)
		}
	}
	return nil
}

// restartMetrics turns the pass's restart samples into metrics.
func (b *bench) restartMetrics(p *pass) {
	p.m["restart_s"] = metric{median(p.restartT), "s"}
	b.note("restart_s_samples", p.restartT)
	for _, name := range []string{"graphio.open_v3_s", "community.hierarchy_s", "server.first_answer_ms", "restart.span_coverage", "restart.other_s"} {
		unit := layerUnit(name)
		if name == "server.first_answer_ms" {
			unit = "ms"
		}
		b.layer(name, median(p.restartLay[name]), unit)
	}
}

// restartOnce performs one restart and returns its wall time, the traced
// layer figures, and the restarted index's checksums.
func (b *bench) restartOnce() (time.Duration, map[string]float64, community.Checksums, error) {
	tr := b.tr
	lay := map[string]float64{}
	t0 := time.Now()
	root := tr.begin("restart", 0)
	sp := tr.begin("graphio.load_edgelist", root)
	g, err := equitruss.LoadEdgeList(b.edgePath)
	tr.end(sp)
	if err != nil {
		return 0, nil, community.Checksums{}, err
	}
	sp = tr.begin("graphio.open_v3", root)
	ix, stats, err := equitruss.OpenIndexFile(b.indexPath("n"), g, equitruss.VerifyEager)
	lay["graphio.open_v3_s"] = secs(tr.end(sp))
	if err != nil {
		return 0, nil, community.Checksums{}, err
	}
	if tr != nil {
		// Untraced, the server's publish builds the hierarchy with all
		// cores; traced, the same call runs under its own span first.
		sp = tr.begin("community.hierarchy", root)
		_, err = ix.PrepareHierarchy(context.Background(), 0, nil)
		lay["community.hierarchy_s"] = secs(tr.end(sp))
		if err != nil {
			return 0, nil, community.Checksums{}, err
		}
	}
	sp = tr.begin("server.first_answer", root)
	srv, err := startServer(func(ctx context.Context, onListen func(net.Addr)) error {
		return equitruss.Serve(ctx, ix, equitruss.ServeOptions{
			Addr: "127.0.0.1:0", OnListen: onListen, Logger: quiet,
			IndexLoadSeconds: stats.Seconds, MmapBytes: stats.MmapBytes,
		})
	})
	if err != nil {
		return 0, nil, community.Checksums{}, err
	}
	d, body, err := firstAnswer(srv.base, b.firstKey, t0)
	lay["server.first_answer_ms"] = ms(tr.end(sp))
	total := tr.end(root)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err == nil {
		if b.opt.corrupt {
			body = corruptBody(body)
		}
		err = checkAnswer(b.ref, communityRequest(b.firstKey, false), body)
	}
	if err != nil {
		b.failed++
		return 0, nil, community.Checksums{}, fmt.Errorf("restart first answer: %w", err)
	}
	if tr != nil {
		cover := tr.childCover(root)
		lay["restart.span_coverage"] = ratio(cover, ms(total))
		lay["restart.other_s"] = (ms(total) - cover) / 1e3
	}
	return d, lay, ix.Checksums(), nil
}
