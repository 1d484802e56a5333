package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"equitruss"
)

// spec is the part of BENCHMARK.json the tests compare the program with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return s
}

// tinyRun runs the benchmark at smoke-test size and returns its stdout,
// stderr and error.
func tinyRun(t *testing.T, workload string, trace int, extra ...string) (string, string, error) {
	t.Helper()
	args := append([]string{
		"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", strconv.Itoa(trace),
		"--scale", "0.05", "--out", t.TempDir(),
	}, extra...)
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// TestSmokeEmitsEveryMetric runs every workload at tiny size, untraced and
// traced, and checks the result line names exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	for _, trace := range []int{0, 1} {
		want := map[string]string{}
		if trace == 0 {
			for _, m := range s.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range s.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		for _, w := range workloads {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				out, errOut, err := tinyRun(t, w.Name, trace)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, errOut)
				}
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestCorruptAnswerTripsGate checks that one altered answer makes a whole
// run fail without printing a result. The gates themselves are tested one
// by one below.
func TestCorruptAnswerTripsGate(t *testing.T) {
	out, _, err := tinyRun(t, "build", 0, "--corrupt-answer")
	if err == nil {
		t.Fatal("run with a corrupted answer succeeded")
	}
	if out != "" {
		t.Fatalf("run with a corrupted answer printed %q", out)
	}
}

// TestLatencyLimitMatchesSpec keeps the capacity search's limit and the
// serve workload's stated limit in BENCHMARK.json the same.
func TestLatencyLimitMatchesSpec(t *testing.T) {
	limit := "p99 limit " + strconv.Itoa(int(queryLimitP99.Milliseconds())) + " ms"
	for _, w := range readSpec(t).Workloads {
		if w.Name == "build" && !strings.Contains(w.Why, limit) {
			t.Errorf("build workload's why %q does not state %q", w.Why, limit)
		}
	}
}

// TestCapacitySearchInterpolates drives the search with a synthetic
// latency curve and checks it lands between the last passing and first
// failing probe.
func TestCapacitySearchInterpolates(t *testing.T) {
	c := &capSearch{rate: 500, bisections: 2}
	for rate, ok := c.next(); ok; rate, ok = c.next() {
		// p99 grows past the 20 ms limit between 4000 and 8000 req/s.
		lat := 1 + rate/300
		r := loadRun{Rate: rate, Planned: 100, Outcomes: make([]outcome, 100)}
		for i := range r.Outcomes {
			r.Outcomes[i] = outcome{Sent: true, Status: 200, Latency: dur(lat / 1e3)}
		}
		c.record(rate, r)
	}
	if got := c.result(); got < 5000 || got > 6000 {
		t.Fatalf("capacity %.0f, want the 20 ms crossing near 5700 (probes %v)", got, c.table)
	}
}

// tinyBench sets up the churn workload at smoke-test size and builds the
// reference index and request stream the gates check against.
func tinyBench(t *testing.T) *bench {
	t.Helper()
	w, _ := findWorkload("churn")
	b := &bench{opt: options{seed: 3, seconds: 1, scale: 0.05}, w: w.scaled(0.05), work: t.TempDir(), log: io.Discard, nproc: 2, art: map[string]any{}}
	b.edgePath = filepath.Join(b.work, "graph.txt")
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	ix, err := equitruss.BuildIndex(b.live, equitruss.Options{Variant: equitruss.Afforest, Threads: 2, PrecomputeHierarchy: true})
	if err != nil {
		t.Fatal(err)
	}
	b.loaded, b.live = b.g, b.g
	b.ref, b.refSums, b.liveRef = ix.Index, ix.Checksums(), ix.Index
	if b.stream, _, err = makeRequests(b.ref, 400, b.opt.seed); err != nil {
		t.Fatal(err)
	}
	b.liveKey = firstKey(b.stream)
	return b
}

// lastDigitFlipped alters the last digit of an answer: a count, size or
// edge number rather than the echoed vertex corruptBody changes.
func lastDigitFlipped(body []byte) []byte {
	out := append([]byte(nil), body...)
	for i := len(out) - 1; i >= 0; i-- {
		if c := out[i]; c >= '0' && c <= '9' {
			out[i] = '0' + (c-'0'+1)%10
			break
		}
	}
	return out
}

// TestServeGateCatchesWrongAnswers serves the reference index, checks a
// real open-loop run passes verifyRun, and then that one altered answer of
// each request kind fails it.
func TestServeGateCatchesWrongAnswers(t *testing.T) {
	b := tinyBench(t)
	srv, err := startServer(func(ctx context.Context, onListen func(net.Addr)) error {
		return equitruss.Serve(ctx, &equitruss.Index{Index: b.ref}, equitruss.ServeOptions{Addr: "127.0.0.1:0", OnListen: onListen, Logger: quiet})
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(2)
	r := openLoop(c, srv.base, b.stream, &b.cursor, 2000, 200*time.Millisecond, 5*time.Second, 2)
	c.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		t.Fatal(err)
	}
	if r.sent() != r.Planned || r.failures() != 0 {
		t.Fatalf("sent %d of %d, %d failed", r.sent(), r.Planned, r.failures())
	}
	if err := b.verifyRun(r); err != nil {
		t.Fatalf("correct answers rejected: %v", err)
	}
	seen := map[int]bool{}
	for i, o := range r.Outcomes {
		kind := b.stream[o.Req].Kind
		if seen[kind] {
			continue
		}
		seen[kind] = true
		for name, corrupt := range map[string]func([]byte) []byte{"first digit": corruptBody, "last digit": lastDigitFlipped} {
			bad := loadRun{Planned: 1, Outcomes: []outcome{o}}
			bad.Outcomes[0].Body = corrupt(o.Body)
			if err := b.verifyRun(bad); err == nil {
				t.Errorf("request %d (%s): %s altered, answer %s accepted", i, b.stream[o.Req].Path, name, bad.Outcomes[0].Body)
			}
		}
	}
	if len(seen) != 4 {
		t.Errorf("run covered %d request kinds, want 4", len(seen))
	}
}

// TestChurnGateComparesChecksums checks the served-vs-rebuild comparison
// accepts equal checksums and rejects any one that differs.
func TestChurnGateComparesChecksums(t *testing.T) {
	b := tinyBench(t)
	if err := checkServed(hexSums(b.refSums), b.refSums); err != nil {
		t.Fatalf("equal checksums rejected: %v", err)
	}
	for _, part := range []string{"tau", "summary", "hierarchy"} {
		served := hexSums(b.refSums)
		served[part] = strings.Repeat("0", 16)
		if err := checkServed(served, b.refSums); err == nil {
			t.Errorf("altered %s checksum accepted", part)
		}
	}
}

// TestRecoveryGateCatchesWrongState recovers a real live state directory
// and checks recoverPhase passes with the right checksums and fails with
// altered ones.
func TestRecoveryGateCatchesWrongState(t *testing.T) {
	b := tinyBench(t)
	opts := equitruss.LiveOptions{
		Dir: filepath.Join(b.work, "live"), SyncPolicy: "always",
		Variant: equitruss.Afforest, Threads: 2, UpdateMode: "auto", Logger: quiet,
	}
	li, err := equitruss.OpenLive(context.Background(), b.live, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := li.Close(); err != nil {
		t.Fatal(err)
	}
	want := &equitruss.Index{Index: b.liveRef}
	p := &pass{m: map[string]metric{}, opts: opts}
	if err := b.recoverPhase(p, want, b.refSums); err != nil {
		t.Fatalf("correct recovery rejected: %v", err)
	}
	wrong := b.refSums
	wrong.Summary ^= 1
	if err := b.recoverPhase(p, want, wrong); err == nil || !strings.Contains(err.Error(), "recovered checksums") {
		t.Fatalf("recovery with altered checksums: err = %v", err)
	}
}
