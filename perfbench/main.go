// Command perfbench is the repository benchmark. One run takes a workload
// name and a seed, generates that workload's inputs, drives them through the
// public entry points (edge-list load, index build, v3 save, mmap open, HTTP
// serving, live updates, crash recovery), checks every answer against an
// independent reference, and prints one JSON result line.
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 the
// run measures an untraced pass and then a traced pass that times every
// layer from outside, and the result holds the per-layer metrics. Details,
// and which layer metric should move which end-to-end metric, are in
// README.md beside this file.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"equitruss/internal/buildinfo"
)

// processStart anchors setup_s, which runs from process start to the
// first timed operation.
var processStart = time.Now()

// metric is one named result value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// outDir receives the work files and the run's artifact; it is created
	// under the current directory and its work files are removed on exit.
	outDir string
	// scale shrinks graphs and budgets for the package's own smoke test;
	// 1 is the benchmark proper.
	scale float64
	// corrupt flips the first restart's answer before checking, so a test
	// can prove a run with a wrong answer fails without a result.
	corrupt bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, executes one benchmark run and prints its result line
// to stdout. Any error — including a failed correctness check — returns
// before a result is printed.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced pass and reports per-layer metrics")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for work files and artifacts")
	fs.Float64Var(&o.scale, "scale", 1, "input and budget scale (tests only; 1 = benchmark)")
	fs.BoolVar(&o.corrupt, "corrupt-answer", false, "corrupt one answer before checking (tests only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || o.scale <= 0 {
		return errors.New("-seconds and -scale must be positive")
	}
	w = w.scaled(o.scale)

	work, err := os.MkdirTemp(mkdirAll(o.outDir), "work-")
	if err != nil {
		return fmt.Errorf("create work directory: %w", err)
	}
	defer os.RemoveAll(work)

	b := &bench{opt: o, w: w, work: work, log: stderr}
	res, art, err := b.execute()
	if err != nil {
		return err
	}
	if err := writeArtifact(o, art); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// mkdirAll creates dir (best effort; MkdirTemp reports a real failure).
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// writeArtifact stores the run's full record — workload properties, probe
// tables, spans, tracing overhead — beside the work directory.
func writeArtifact(o options, art map[string]any) error {
	dir := filepath.Join(o.outDir, "artifacts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace))
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// environment records where the run happened.
func environment() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"revision":   buildinfo.Revision(),
	}
}

// sortedKeys returns a metric map's names in order, for stable printing.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
