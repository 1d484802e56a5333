// Command benchsuite reproduces every table and figure of the paper's
// evaluation section on the synthetic dataset surrogates. Each experiment
// prints the same rows/series the paper reports; absolute numbers differ
// (laptop + surrogate graphs vs. 128-core Perlmutter + SNAP datasets) but
// the shapes — kernel dominance, variant ordering, scaling curves — are the
// reproduction target. See EXPERIMENTS.md for recorded paper-vs-measured
// comparisons.
//
// Usage:
//
//	benchsuite -experiment all -scale 0.25
//	benchsuite -experiment fig5 -scale 1.0
//	benchsuite -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"equitruss/internal/concur"
	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/obs"
	"equitruss/internal/triangle"
	"equitruss/internal/truss"
)

type experiment struct {
	id    string
	title string
	run   func(cfg config)
	// onlyExplicit experiments are skipped by -experiment all: they are
	// either too slow for a routine sweep (rmat18) or meaningful only with
	// dedicated flags.
	onlyExplicit bool
}

type config struct {
	scale   float64          // dataset size factor
	maxThr  int              // top of the thread sweep
	kernel  triangle.Kernel  // Support kernel for all triangle counting
	peel    truss.PeelKernel // TrussDecomp kernel for all peeling
	verbose bool
	sink    *tsvSink       // optional TSV mirror of every table
	art     *benchArtifact // run artifact; experiments may append rows
	// hist collects every individual timed repetition of the current
	// experiment (fresh per experiment), so the artifact reports latency
	// quantiles over the actual sample population, not just min-of-reps.
	hist *obs.Histogram
}

// observe records one timed repetition into the current experiment's
// latency histogram (nil-safe for direct test calls of run functions).
func (cfg config) observe(d time.Duration) {
	if cfg.hist != nil {
		cfg.hist.Observe(d)
	}
}

var experiments = []experiment{
	{"tab3", "Table 3: dataset inventory", runTab3, false},
	{"fig2", "Figure 2: serial pipeline kernel breakdown (%)", runFig2, false},
	{"fig4", "Figure 4: Baseline parallel kernel breakdown (%), 1 thread", runFig4, false},
	{"fig5", "Figure 5: single-thread SpNode speedup by variant", runFig5, false},
	{"fig6", "Figure 6: strong scaling of index construction", runFig6, false},
	{"fig7", "Figure 7: SpNode scaling on friendster-sim", runFig7, false},
	{"fig8", "Figure 8: kernel breakdown across thread counts", runFig8, false},
	{"fig9", "Figure 9: parallel efficiency", runFig9, false},
	{"tab4", "Table 4: single-thread comparison incl. Original (serial)", runTab4, false},
	{"tab5", "Table 5: index sizes and parallel speedups", runTab5, false},
	{"support", "Support kernel sweep: merge vs gallop vs oriented", runSupport, false},
	{"peel", "Peel kernel sweep: levelsync vs serial vs pkt", runPeel, false},
	{"query", "Query path: hierarchy vs indexed-BFS vs DirectCommunities", runQuery, false},
	{"update", "Live update applier: incremental repair vs full rebuild", runUpdate, false},
	{"rmat18", "RMAT scale-18 skewed graph: Support + Decompose (honors -support-kernel and -peel-kernel)", runRMAT18, true},
	{"coldstart", "Cold start: v2 decode vs v3 mmap, index file to first community answer", runColdstart, true},
}

func main() {
	expID := flag.String("experiment", "all", "comma-separated experiment ids (tab3, fig2, ..., support, query, rmat18) or 'all'")
	scale := flag.Float64("scale", 0.25, "dataset size factor (1.0 = paper-surrogate default size)")
	maxThr := flag.Int("maxthreads", concur.MaxThreads(), "top of the thread sweep")
	kernelName := flag.String("support-kernel", "auto", "Support kernel: auto|merge|gallop|oriented")
	peelName := flag.String("peel-kernel", "auto", "TrussDecomp kernel: auto|serial|levelsync|pkt")
	check := flag.String("check", "", "baseline BENCH_*.json: fail if the Support stage regressed >20% vs it")
	list := flag.Bool("list", false, "list experiments and exit")
	verbose := flag.Bool("v", false, "verbose progress")
	outDir := flag.String("out", "", "directory for TSV copies of every table (plot-ready)")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-7s %s\n", e.id, e.title)
		}
		return
	}
	kernel, err := triangle.ParseKernel(*kernelName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(2)
	}
	peel, err := truss.ParsePeelKernel(*peelName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
		os.Exit(2)
	}
	art := &benchArtifact{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GitRev:        gitRev(),
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Scale:         *scale,
		MaxThreads:    *maxThr,
		SupportKernel: kernel.String(),
		PeelKernel:    peel.String(),
	}
	cfg := config{scale: *scale, maxThr: *maxThr, kernel: kernel, peel: peel, verbose: *verbose, art: art}
	if *outDir != "" {
		cfg.sink = &tsvSink{dir: *outDir}
	}
	fmt.Printf("# benchsuite: %d CPUs, GOMAXPROCS=%d, scale=%.2f, kernel=%s, peel=%s, rev=%s\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.scale, kernel, peel, art.GitRev)
	wanted := map[string]bool{}
	for _, id := range strings.Split(*expID, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[id] = true
		}
	}
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.id] = true
	}
	for id := range wanted {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
	}
	ran := false
	for _, e := range experiments {
		if (wanted["all"] && !e.onlyExplicit) || wanted[e.id] {
			fmt.Printf("== %s ==\n", e.title)
			cfg.hist = obs.NewHistogram("exp_"+e.id, e.title)
			start := time.Now()
			e.run(cfg)
			wall := time.Since(start)
			res := experimentResult{ID: e.id, Title: e.title, Seconds: wall.Seconds()}
			if sum := cfg.hist.Snapshot().Summary(); sum.Count > 0 {
				res.Latency = &latencyDoc{
					Samples:    sum.Count,
					MeanSec:    sum.Mean.Seconds(),
					P50Seconds: sum.P50.Seconds(),
					P95Seconds: sum.P95.Seconds(),
					P99Seconds: sum.P99.Seconds(),
				}
				fmt.Printf("(latency over %d timed reps: p50=%v p95=%v p99=%v)\n",
					sum.Count, sum.P50.Round(time.Microsecond),
					sum.P95.Round(time.Microsecond), sum.P99.Round(time.Microsecond))
			}
			fmt.Printf("(experiment wall time: %v)\n\n", wall.Round(time.Millisecond))
			art.Experiments = append(art.Experiments, res)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q (use -list)\n", *expID)
		os.Exit(2)
	}
	art.Counters = obs.DefaultRegistry().Snapshot()
	if path, err := writeArtifact(*outDir, *art); err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: artifact: %v\n", err)
		os.Exit(1)
	} else {
		fmt.Printf("# artifact written to %s\n", path)
	}
	if *check != "" {
		if err := checkAgainstBaseline(*check, art); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: benchcheck FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("# benchcheck OK vs %s\n", *check)
	}
}

// gitRev identifies the commit a benchmark artifact was produced at, so
// BENCH_*.json files are comparable across the repo's history. Binaries
// built with module VCS stamping carry it in build info; `go run` from a
// work tree does not, so fall back to asking git directly.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// benchArtifact is the machine-readable record of one benchsuite run,
// written as BENCH_<timestamp>.json so perf trajectories can be compared
// across commits without scraping stdout.
type benchArtifact struct {
	Timestamp      string             `json:"timestamp"`
	GitRev         string             `json:"git_rev"`
	CPUs           int                `json:"cpus"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	Scale          float64            `json:"scale"`
	MaxThreads     int                `json:"max_threads"`
	SupportKernel  string             `json:"support_kernel"`
	PeelKernel     string             `json:"peel_kernel,omitempty"`
	Experiments    []experimentResult `json:"experiments"`
	SupportBench   []supportRow       `json:"support_bench,omitempty"`
	QueryBench     []queryRow         `json:"query_bench,omitempty"`
	PeelBench      []peelRow          `json:"peel_bench,omitempty"`
	UpdateBench    []updateRow        `json:"update_bench,omitempty"`
	ColdstartBench []coldstartRow     `json:"coldstart_bench,omitempty"`
	Counters       []obs.CounterValue `json:"counters,omitempty"`
}

// coldstartRow is one timed open→first-answer measurement for one index
// loader. Rows for the same dataset must carry identical checksums — the
// loaders are interchangeable ways to get the same index serving, only
// their costs differ.
type coldstartRow struct {
	Dataset    string  `json:"dataset"`
	Loader     string  `json:"loader"`
	Seconds    float64 `json:"seconds"`
	IndexBytes int64   `json:"index_bytes"`
	MmapBytes  int64   `json:"mmap_bytes"`
	HeapBytes  int64   `json:"heap_bytes"`
	Checksum   uint64  `json:"checksum"`
}

// supportRow is one timed Support-stage measurement: a (dataset, kernel)
// cell of the kernel sweep. Seconds is the minimum over reps; Checksum is
// an FNV-1a hash of the support array, so artifacts also witness that the
// kernels agreed on the answer, not just the time.
type supportRow struct {
	Dataset  string  `json:"dataset"`
	Kernel   string  `json:"kernel"`
	Threads  int     `json:"threads"`
	Seconds  float64 `json:"seconds"`
	Checksum uint64  `json:"checksum"`
}

// queryRow is one timed query-workload measurement for one engine. Rows for
// the same (dataset, workload) must carry identical checksums: the engines
// are interchangeable answer paths, only their costs differ.
type queryRow struct {
	Dataset  string  `json:"dataset"`
	Workload string  `json:"workload"`
	Engine   string  `json:"engine"`
	Threads  int     `json:"threads"`
	Seconds  float64 `json:"seconds"`
	Checksum uint64  `json:"checksum"`
}

// peelRow is one timed TrussDecomp-stage measurement: a (dataset, peel
// kernel) cell of the kernel sweep, with the FNV-1a trussness checksum
// witnessing that the kernels agreed on the answer.
type peelRow struct {
	Dataset  string  `json:"dataset"`
	Kernel   string  `json:"kernel"`
	Threads  int     `json:"threads"`
	Seconds  float64 `json:"seconds"`
	Checksum uint64  `json:"checksum"`
}

// updateRow is one live-update applier measurement: the same deterministic
// batch stream driven to fully-applied under one publish engine. Rows for
// the same dataset must carry identical checksums — the engines are
// interchangeable publish paths, only their costs differ.
type updateRow struct {
	Dataset         string  `json:"dataset"`
	Engine          string  `json:"engine"`
	Batches         int     `json:"batches"`
	Ops             int     `json:"ops"`
	Seconds         float64 `json:"seconds"`
	UpdatesPerSec   float64 `json:"updates_per_sec"`
	P95StalenessSec float64 `json:"p95_staleness_seconds"`
	Checksum        uint64  `json:"checksum"`
}

type experimentResult struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	// Latency summarizes the distribution of the experiment's individual
	// timed repetitions (present only for experiments that time reps).
	// Purely informational: the -check gate reads only the normalized
	// min-of-reps ratios, never these quantiles.
	Latency *latencyDoc `json:"latency,omitempty"`
}

// latencyDoc is the per-experiment latency quantile summary in BENCH_*.json.
type latencyDoc struct {
	Samples    int64   `json:"samples"`
	MeanSec    float64 `json:"mean_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// writeArtifact writes the artifact into dir (cwd when empty) and returns
// the path.
func writeArtifact(dir string, art benchArtifact) (string, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	name := "BENCH_" + time.Now().UTC().Format("20060102T150405Z") + ".json"
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// --- shared helpers ---------------------------------------------------------

// graphCache avoids regenerating the same surrogate across experiments in
// an "all" run.
var graphCache = map[string]*graph.Graph{}

func dataset(cfg config, name string) *graph.Graph {
	key := fmt.Sprintf("%s@%.3f", name, cfg.scale)
	if g, ok := graphCache[key]; ok {
		return g
	}
	spec, err := gen.FindDataset(name)
	if err != nil {
		panic(err)
	}
	g := spec.Generate(cfg.scale)
	graphCache[key] = g
	return g
}

// tauCache holds trussness per dataset so repeated experiments share the
// decomposition.
var tauCache = map[string][]int32{}

func trussness(cfg config, name string, g *graph.Graph) []int32 {
	key := fmt.Sprintf("%s@%.3f", name, cfg.scale)
	if tau, ok := tauCache[key]; ok {
		return tau
	}
	sup, _ := triangle.SupportsKernelCtx(nil, g, cfg.kernel, 0, nil)
	tau, _, _ := truss.DecomposeKernelCtx(nil, g, sup, cfg.peel, 0, nil)
	tauCache[key] = tau
	return tau
}

func threadSweep(maxThr int) []int {
	var out []int
	for t := 1; t <= maxThr; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != maxThr {
		out = append(out, maxThr)
	}
	return out
}

func pct(part, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

func secs(d time.Duration) float64 { return d.Seconds() }

// fourNets is the four-network set used by Figures 4 and 5 (DBLP, YouTube,
// LiveJournal, Orkut in the paper; Amazon swaps in for Figure 2 and
// Table 4; friendster-sim is Figure 7 only).
var fourNets = []string{"dblp-sim", "youtube-sim", "livejournal-sim", "orkut-sim"}
