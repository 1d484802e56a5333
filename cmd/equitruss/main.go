// Command equitruss builds EquiTruss indexes and answers k-truss community
// queries from the command line.
//
// Usage:
//
//	equitruss build  -graph g.txt [-variant afforest] [-threads N] [-out index.bin]
//	equitruss query  -graph g.txt -index index.bin -vertex V -k K
//	equitruss stats  -graph g.txt [-variant afforest] [-threads N]
//	equitruss serve  -graph g.txt [-index index.bin] [-addr :8080]
//
// The graph argument accepts either a SNAP-style edge-list file or
// "dataset:<name>[:<sizeFactor>]" for a built-in synthetic surrogate, e.g.
// "dataset:orkut-sim:0.25".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"equitruss"
	"equitruss/internal/buildinfo"
	"equitruss/internal/graphio"
	"equitruss/internal/truss"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "version", "-version", "--version":
		fmt.Printf("equitruss %s (%s)\n", buildinfo.Revision(), runtime.Version())
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "equitruss: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "equitruss:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  equitruss build -graph <path|dataset:name[:factor]> [-variant serial|baseline|coptimal|afforest] [-support-kernel auto|merge|gallop|oriented] [-peel-kernel auto|serial|levelsync|pkt] [-threads N] [-out index.bin]
  equitruss query -graph <...> (-index index.bin | -variant ...) -vertex V -k K
  equitruss stats -graph <...> [-variant ...] [-support-kernel ...] [-peel-kernel ...] [-threads N]
  equitruss export -graph <...> [-what summary|graph] [-out file.dot]
  equitruss serve -graph <...> [-index index.bin | -variant ...] [-addr :8080] [-cache N] [-workers N] [-maxbatch N] [-drain 10s] [-log-format text|json] [-sample N] [-slow 250ms]
  equitruss version
`)
}

func loadGraph(spec string) (*equitruss.Graph, error) {
	if strings.HasPrefix(spec, "dataset:") {
		parts := strings.Split(spec, ":")
		factor := 1.0
		if len(parts) >= 3 {
			f, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("bad size factor %q: %v", parts[2], err)
			}
			factor = f
		}
		return equitruss.GenerateDataset(parts[1], factor)
	}
	return equitruss.LoadEdgeList(spec)
}

func parseVariant(s string) (equitruss.Variant, error) {
	switch strings.ToLower(s) {
	case "serial", "original":
		return equitruss.Serial, nil
	case "baseline", "sv":
		return equitruss.Baseline, nil
	case "coptimal", "c-optimal", "copt":
		return equitruss.COptimal, nil
	case "afforest", "aff":
		return equitruss.Afforest, nil
	default:
		return 0, fmt.Errorf("unknown variant %q", s)
	}
}

func runBuild(args []string) error {
	// SIGINT/SIGTERM cancel the pipeline: every kernel checks the context
	// at scheduler-barrier granularity, so an interrupted build exits
	// promptly with all workers joined instead of finishing a large graph.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runBuildCtx(ctx, args)
}

// runBuildCtx is runBuild with the lifetime context injected for tests.
func runBuildCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	graphSpec := fs.String("graph", "", "edge-list path or dataset:<name>[:<factor>]")
	variantName := fs.String("variant", "afforest", "serial|baseline|coptimal|afforest")
	kernelName := fs.String("support-kernel", "auto", "Support kernel: auto|merge|gallop|oriented")
	peelName := fs.String("peel-kernel", "auto", "TrussDecomp kernel: auto|serial|levelsync|pkt")
	threads := fs.Int("threads", 0, "threads (0 = all cores)")
	out := fs.String("out", "", "write binary index to this path")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if *graphSpec == "" {
		return fmt.Errorf("-graph is required")
	}
	variant, err := parseVariant(*variantName)
	if err != nil {
		return err
	}
	kernel, err := equitruss.ParseSupportKernel(*kernelName)
	if err != nil {
		return err
	}
	peel, err := equitruss.ParsePeelKernel(*peelName)
	if err != nil {
		return err
	}
	g, err := loadGraph(*graphSpec)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	tr, err := obsf.begin()
	if err != nil {
		return err
	}
	sg, tm, err := equitruss.BuildSummary(g, equitruss.Options{
		Variant: variant, Threads: *threads, SupportKernel: kernel, PeelKernel: peel, Tracer: tr, Context: ctx,
	})
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("build interrupted: %w", err)
		}
		return err
	}
	fmt.Printf("index: %d supernodes, %d superedges\n", sg.NumSupernodes(), sg.NumSuperedges())
	fmt.Printf("kernels: Support=%v TrussDecomp=%v Init=%v SpNode=%v SpEdge=%v SmGraph=%v Remap=%v\n",
		tm.Support, tm.TrussDecomp, tm.Init, tm.SpNode, tm.SpEdge, tm.SmGraph, tm.SpNodeRemap)
	fmt.Printf("total: %v (index construction: %v)\n", tm.Total(), tm.IndexTotal())
	if err := obsf.finish(); err != nil {
		return err
	}
	if *out != "" {
		// Crash-safe save: checksummed v3 layout, temp file + fsync +
		// atomic rename — a crash or interrupt mid-save never leaves a torn
		// index behind.
		if err := equitruss.SaveIndexFile(*out, sg); err != nil {
			return err
		}
		fmt.Printf("index written to %s (%s)\n", *out, equitruss.FormatV3)
	}
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	graphSpec := fs.String("graph", "", "edge-list path or dataset:<name>[:<factor>]")
	indexPath := fs.String("index", "", "binary index from 'equitruss build -out'")
	variantName := fs.String("variant", "afforest", "variant to build with if no -index given")
	threads := fs.Int("threads", 0, "threads (0 = all cores)")
	vertex := fs.Int("vertex", -1, "query vertex")
	k := fs.Int("k", 4, "trussness level (>= 3)")
	fs.Parse(args)
	if *graphSpec == "" || *vertex < 0 {
		return fmt.Errorf("-graph and -vertex are required")
	}
	g, err := loadGraph(*graphSpec)
	if err != nil {
		return err
	}
	// Validate before any index lookup: MaxK and Communities index the
	// vertex→supernode CSR by v unchecked, so an out-of-range vertex must be
	// rejected here rather than panic inside the query path.
	if int64(*vertex) >= int64(g.NumVertices()) {
		return fmt.Errorf("query: vertex %d outside [0, %d)", *vertex, g.NumVertices())
	}
	var idx *equitruss.Index
	if *indexPath != "" {
		idx, _, err = equitruss.OpenIndexFile(*indexPath, g, equitruss.VerifyEager)
		if err != nil {
			return err
		}
	} else {
		variant, err := parseVariant(*variantName)
		if err != nil {
			return err
		}
		idx, err = equitruss.BuildIndex(g, equitruss.Options{Variant: variant, Threads: *threads})
		if err != nil {
			return err
		}
	}
	cs := idx.Communities(int32(*vertex), int32(*k))
	fmt.Printf("vertex %d participates in %d community(ies) at k=%d\n", *vertex, len(cs), *k)
	for i, c := range cs {
		verts := c.Vertices()
		fmt.Printf("  community %d: %d vertices, %d edges", i, len(verts), len(c.Edges))
		if len(verts) <= 25 {
			fmt.Printf(" %v", verts)
		}
		fmt.Println()
	}
	if maxK := idx.MaxK(int32(*vertex)); maxK > 0 {
		fmt.Printf("strongest community of vertex %d: k=%d\n", *vertex, maxK)
	}
	hst := idx.Hierarchy().Stats()
	fmt.Printf("hierarchy: %d nodes, %d roots, kmax %d, depth %d\n",
		hst.Nodes, hst.Roots, hst.KMax, hst.MaxDepth)
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	graphSpec := fs.String("graph", "", "edge-list path or dataset:<name>[:<factor>]")
	variantName := fs.String("variant", "afforest", "variant")
	kernelName := fs.String("support-kernel", "auto", "Support kernel: auto|merge|gallop|oriented")
	peelName := fs.String("peel-kernel", "auto", "TrussDecomp kernel: auto|serial|levelsync|pkt")
	threads := fs.Int("threads", 0, "threads (0 = all cores)")
	jsonOut := fs.Bool("json", false, "emit one machine-readable JSON document instead of text")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if *graphSpec == "" {
		return fmt.Errorf("-graph is required")
	}
	variant, err := parseVariant(*variantName)
	if err != nil {
		return err
	}
	kernel, err := equitruss.ParseSupportKernel(*kernelName)
	if err != nil {
		return err
	}
	peel, err := equitruss.ParsePeelKernel(*peelName)
	if err != nil {
		return err
	}
	g, err := loadGraph(*graphSpec)
	if err != nil {
		return err
	}
	tr, err := obsf.begin()
	if err != nil {
		return err
	}
	// The full pipeline runs once; Trussness is not called separately so the
	// counters and spans describe exactly one build.
	sg, tm, err := equitruss.BuildSummary(g, equitruss.Options{Variant: variant, Threads: *threads, SupportKernel: kernel, PeelKernel: peel, Tracer: tr})
	if err != nil {
		return err
	}
	tau := sg.Tau
	kmax := truss.KMax(tau)
	hist := equitruss.TrussnessHistogram(tau)
	// Attach the query index and build the community hierarchy so stats
	// reports the full query-ready shape, not just the summary graph.
	hst := equitruss.NewIndexFromSummary(g, sg).Hierarchy().Stats()
	if *jsonOut {
		// Reuse the obs report as the timing/counter section; synthesize it
		// from Timings when the run was untraced so wall times still appear.
		rep := equitruss.TraceReport(tr)
		if tr == nil {
			syn := equitruss.NewTracer()
			tm.EmitSpans(syn)
			rep = equitruss.TraceReport(syn)
		}
		doc := statsDoc{
			Graph: graphDoc{
				Vertices:  int64(g.NumVertices()),
				Edges:     int64(g.NumEdges()),
				MaxDegree: int64(g.MaxDegree()),
			},
			Variant:        fmt.Sprintf("%v", variant),
			Threads:        tm.Threads,
			KMax:           kmax,
			TrussHistogram: histToDoc(hist),
			Index:          sg.ComputeStats(),
			Hierarchy:      hst,
			TotalSeconds:   tm.Total().Seconds(),
			Report:         rep,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
		return obsf.finish()
	}
	fmt.Printf("graph: %d vertices, %d edges, max degree %d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())
	fmt.Printf("kmax: %d\n", kmax)
	fmt.Println("trussness histogram:")
	keys := make([]int32, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Printf("  τ=%-3d %d edges\n", k, hist[k])
	}
	fmt.Printf("index (%v): %d supernodes, %d superedges, built in %v\n",
		variant, sg.NumSupernodes(), sg.NumSuperedges(), tm.Total())
	fmt.Printf("hierarchy: %d nodes, %d roots, kmax %d, depth %d, level entries %d\n",
		hst.Nodes, hst.Roots, hst.KMax, hst.MaxDepth, hst.LevelEntries)
	fmt.Printf("kernel breakdown: %s\n", tm.Breakdown())
	return obsf.finish()
}

// statsDoc is the machine-readable output of `equitruss stats -json`.
type statsDoc struct {
	Graph          graphDoc                 `json:"graph"`
	Variant        string                   `json:"variant"`
	Threads        int                      `json:"threads"`
	KMax           int32                    `json:"kmax"`
	TrussHistogram []histBucket             `json:"truss_histogram"`
	Index          equitruss.Stats          `json:"index"`
	Hierarchy      equitruss.HierarchyStats `json:"hierarchy"`
	TotalSeconds   float64                  `json:"total_seconds"`
	Report         *equitruss.BuildReport   `json:"report"`
}

type graphDoc struct {
	Vertices  int64 `json:"vertices"`
	Edges     int64 `json:"edges"`
	MaxDegree int64 `json:"max_degree"`
}

type histBucket struct {
	K     int32 `json:"k"`
	Edges int64 `json:"edges"`
}

// histToDoc flattens the histogram map into a k-sorted list so the JSON is
// deterministic.
func histToDoc(hist map[int32]int64) []histBucket {
	keys := make([]int32, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]histBucket, 0, len(keys))
	for _, k := range keys {
		out = append(out, histBucket{K: k, Edges: hist[k]})
	}
	return out
}

// runExport writes Graphviz DOT renderings: the supergraph ("summary") or
// the original graph with trussness edge labels ("graph").
func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	graphSpec := fs.String("graph", "", "edge-list path or dataset:<name>[:<factor>]")
	what := fs.String("what", "summary", "summary|graph")
	variantName := fs.String("variant", "afforest", "variant used to build the index")
	threads := fs.Int("threads", 0, "threads (0 = all cores)")
	out := fs.String("out", "", "output path ('-' or empty for stdout)")
	fs.Parse(args)
	if *graphSpec == "" {
		return fmt.Errorf("-graph is required")
	}
	g, err := loadGraph(*graphSpec)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *what {
	case "summary":
		variant, err := parseVariant(*variantName)
		if err != nil {
			return err
		}
		sg, _, err := equitruss.BuildSummary(g, equitruss.Options{Variant: variant, Threads: *threads})
		if err != nil {
			return err
		}
		return graphio.WriteSummaryDOT(w, sg)
	case "graph":
		tau := equitruss.Trussness(g, *threads)
		return graphio.WriteGraphDOT(w, g, tau)
	default:
		return fmt.Errorf("unknown export kind %q", *what)
	}
}
