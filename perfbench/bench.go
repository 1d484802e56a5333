package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"equitruss"
	"equitruss/internal/community"
	"equitruss/internal/graph"
	"equitruss/internal/graphio"
	"equitruss/internal/wal"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

// streamLen is the number of pre-rendered requests; runs cycle through it.
const streamLen = 60000

// bench is one benchmark run: the generated inputs, the verified reference
// state, and the tallies every phase adds to.
type bench struct {
	opt  options
	w    workload
	work string
	log  io.Writer

	nproc     int
	attempted int64
	failed    int64

	// Inputs, regenerated from the seed by setup.
	g        *graph.Graph
	edgePath string
	updates  []wal.Batch

	// State the build phase verifies and later phases check against.
	loaded   *graph.Graph     // the edge-list file as the program reads it
	ref      *community.Index // nproc build over loaded, equal to the 1-thread build
	refSums  community.Checksums
	stream   []request
	cursor   int
	firstKey key

	// The live graph the churn phase updates, its reference index and its
	// query stream.
	live       *graph.Graph
	liveRef    *community.Index
	liveStream []request
	liveCursor int
	liveKey    key

	// pass is 0 for the untraced pass and 1 for the traced pass.
	pass   int
	tr     *tracer
	layers map[string]metric
	art    map[string]any
}

// execute sets up, runs the untraced pass (and, when tracing, the traced
// pass) and assembles the result and the artifact.
func (b *bench) execute() (result, map[string]any, error) {
	b.nproc = runtime.NumCPU()
	b.edgePath = filepath.Join(b.work, "graph.txt")
	b.art = map[string]any{
		"workload":    b.w.describe(),
		"seed":        b.opt.seed,
		"seconds":     b.opt.seconds,
		"trace":       b.opt.trace,
		"environment": environment(),
		"senders":     b.nproc,
	}
	// setup_s runs from process start to the first timed operation. The
	// part before the first set-up (flag parsing, the work directory) is
	// paid once, so it is added to every repeat rather than to the first.
	pre := time.Since(processStart)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		settle()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, secs(pre+time.Since(t0)))
	}
	b.art["setup_pre_s"] = secs(pre)
	b.art["setup_s_repeats"] = setups
	b.art["input"] = map[string]any{
		"vertices": b.g.NumVertices(), "edges": b.g.NumEdges(),
		"live_vertices": b.live.NumVertices(), "live_edges": b.live.NumEdges(), "update_batches": len(b.updates),
	}

	// A traced run splits the time and the rounds between an untraced and
	// a traced pass, so it takes as long as an untraced run.
	budget, rounds := b.opt.seconds, b.w.Rounds
	if b.opt.trace {
		budget, rounds = budget/2, max(1, rounds/2)
	}
	e2e, err := b.runPass(budget, rounds)
	if err != nil {
		return result{}, nil, err
	}
	e2e["setup_s"] = metric{median(setups), "s"}
	b.art["end_to_end"] = e2e
	metrics := e2e
	if b.opt.trace {
		b.pass, b.tr, b.layers = 1, newTracer(), map[string]metric{}
		traced, err := b.runPass(budget, rounds)
		if err != nil {
			return result{}, nil, err
		}
		overhead := map[string]float64{}
		for name, m := range traced {
			overhead[name] = m.Value - e2e[name].Value
		}
		b.art["end_to_end_traced"] = traced
		b.art["tracing_overhead"] = overhead
		b.art["per_layer"] = b.layers
		b.art["spans"] = b.tr.spans
		b.art["self_ms"] = b.tr.selfTimes()
		metrics = b.layers
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(b.log, "%-36s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	return result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, b.art, nil
}

// setup generates the inputs from the seed: the graph, its edge-list file,
// and the update batches the churn phase will post.
func (b *bench) setup() error {
	g, err := makeGraph(b.w, b.opt.seed)
	if err != nil {
		return err
	}
	if err := graphio.WriteEdgeListFile(b.edgePath, g); err != nil {
		return err
	}
	// Enough batches for the longest churn phase this run can have.
	live := g
	if b.w.Family != liveFamily || b.w.Comms != b.w.LiveComms {
		if live, err = makeLiveGraph(b.w, b.opt.seed); err != nil {
			return err
		}
	}
	n := int(math.Ceil(b.opt.seconds*b.w.ChurnShare*b.w.ChurnWriteBPS)) + b.w.Rounds + 16
	b.g, b.live, b.updates = g, live, makeUpdates(live, n, b.opt.seed)
	return nil
}

// pass holds one pass's servers and samples; the phases add to it round
// by round.
type pass struct {
	m map[string]metric

	// build
	buildT   map[string][]float64
	allocN   []float64
	buildLay map[string][]float64
	builds   map[string]buildOut

	// restart
	restarts   int
	restartT   []float64
	restartLay map[string][]float64

	// serve
	srv          *running
	idx          *community.Index
	client       *http.Client
	verify       []loadRun
	nominal      []loadRun
	nominalFirst []int
	serveD       *deltas
	search       *capSearch
	maxRPS       []float64

	// churn
	opts      equitruss.LiveOptions
	li        *equitruss.LiveIndex
	liveSrv   *running
	rc, wc    *http.Client
	posted    int
	acks      []ack
	reads     []loadRun
	staleMax  uint64
	churnD    *deltas
	churnWall time.Duration
}

// stop shuts down any server an error left running.
func (p *pass) stop() {
	if p.srv != nil {
		p.srv.stop()
	}
	if p.liveSrv != nil {
		p.liveSrv.stop()
		p.li.Close()
	}
}

// runPass measures every end-to-end metric once. The phases run in rounds
// — each round builds one nproc/1-thread pair, restarts, serves one
// nominal window plus a share of the capacity probes, and runs one churn
// segment — so a burst of outside load lands in a few samples of every
// metric instead of all samples of one; the medians then drop it. Recovery
// runs at the end, once the live server has stopped.
func (b *bench) runPass(seconds float64, rounds int) (map[string]metric, error) {
	w := b.w
	p := &pass{
		m:      map[string]metric{},
		buildT: map[string][]float64{}, buildLay: map[string][]float64{}, builds: map[string]buildOut{},
		restartLay: map[string][]float64{},
		serveD:     newDeltas(), churnD: newDeltas(),
	}
	defer p.stop()
	// A search usually takes three or four doublings plus the bisections;
	// whatever the rounds leave over runs at the end.
	probes := (4 + bisections + rounds - 1) / rounds
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if err := b.buildRound(p, r == 0, r == rounds-1); err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		if r == 0 {
			if err := b.serveStart(p, 0.05*seconds); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			if err := b.churnStart(p); err != nil {
				return nil, fmt.Errorf("churn: %w", err)
			}
		}
		restarts := restartsPerRound
		if r == 0 {
			restarts += warmups
		}
		if err := b.restartRound(p, restarts); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if err := b.serveRound(p, seconds*w.NominalShare/float64(rounds), probes); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if err := b.churnRound(p, seconds*w.ChurnShare/float64(rounds)); err != nil {
			return nil, fmt.Errorf("churn: %w", err)
		}
		fmt.Fprintf(b.log, "pass %d round %d: %.2fs\n", b.pass, r, secs(time.Since(t0)))
	}
	t0 := time.Now()
	b.buildMetrics(p)
	b.restartMetrics(p)
	if err := b.serveFinish(p); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := b.churnFinish(p); err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	fmt.Fprintf(b.log, "pass %d finish: %.2fs\n", b.pass, secs(time.Since(t0)))
	return p.m, nil
}

// layer records one per-layer metric of the traced pass.
func (b *bench) layer(name string, v float64, unit string) {
	if b.layers != nil {
		b.layers[name] = metric{v, unit}
	}
}

// note stores a workload property in the artifact, keyed by pass.
func (b *bench) note(name string, v any) {
	b.art[fmt.Sprintf("pass%d.%s", b.pass, name)] = v
}

// tally adds an open-loop run's requests to the attempted/failed counts.
func (b *bench) tally(r loadRun) {
	b.attempted += int64(r.sent())
	b.failed += int64(r.failures())
}

// verifyRun checks every successful answer of a run against the reference.
func (b *bench) verifyRun(r loadRun) error {
	for _, o := range r.Outcomes {
		if !o.Sent || o.Err != nil || o.Status/100 != 2 {
			continue
		}
		if err := checkAnswer(b.ref, b.stream[o.Req], o.Body); err != nil {
			return fmt.Errorf("wrong answer: %w", err)
		}
	}
	return nil
}

// corruptBody changes an answer the way a real defect might: the first
// digit in the body is replaced.
func corruptBody(body []byte) []byte {
	out := append([]byte(nil), body...)
	for i, c := range out {
		if c >= '0' && c <= '9' {
			out[i] = '0' + (c-'0'+1)%10
			break
		}
	}
	return out
}
