package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// quiet discards server and applier logs; request logs are debug-level and
// off either way, so only rare operational records are dropped.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// running is a server started on a loopback port for one phase.
type running struct {
	base   string
	cancel context.CancelFunc
	done   chan error
}

// startServer runs serve (one of the public Serve entry points) on an
// ephemeral loopback port and returns once it listens, or with its error.
func startServer(serve func(ctx context.Context, onListen func(net.Addr)) error) (*running, error) {
	ctx, cancel := context.WithCancel(context.Background())
	addr := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ctx, func(a net.Addr) { addr <- a }) }()
	select {
	case a := <-addr:
		return &running{base: "http://" + a.String(), cancel: cancel, done: done}, nil
	case err := <-done:
		cancel()
		return nil, fmt.Errorf("server did not start: %w", err)
	}
}

// stop shuts the server down and waits until its goroutine has returned.
func (r *running) stop() error {
	r.cancel()
	return <-r.done
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 10 * time.Second,
	}
}

// do sends one request and returns its status and body.
func do(c *http.Client, base string, r request) (int, []byte, error) {
	var resp *http.Response
	var err error
	if r.Body != nil {
		resp, err = c.Post(base+r.Path, "application/json", bytes.NewReader(r.Body))
	} else {
		resp, err = c.Get(base + r.Path)
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON fetches path and decodes its JSON body into v.
func getJSON(c *http.Client, base, path string, v any) error {
	resp, err := c.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// outcome is one request of an open-loop run. Times are offsets from the
// run's start. Latency is measured from the due time whenever the request
// had to wait for a sender, so a stall that delays later sends is charged
// to them; Lag is how late the request left.
type outcome struct {
	Req     int
	Sent    bool
	Due     time.Duration
	Lag     time.Duration
	Latency time.Duration
	Status  int
	Body    []byte
	Err     error
}

// loadRun is the record of one open-loop run at a fixed rate.
type loadRun struct {
	Rate     float64
	Planned  int
	Outcomes []outcome
}

// openLoop offers stream requests (starting at *cursor, wrapping) at a
// fixed rate for dur, from at most senders goroutines sharing c. Request i
// is due at i/rate; a sender sleeps until the due time, or sends at once
// when it is behind. Requests still unsent at dur+grace are dropped as
// backlog. The function returns after every sender has finished.
func openLoop(c *http.Client, base string, stream []request, cursor *int, rate float64, dur, grace time.Duration, senders int) loadRun {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	run := loadRun{Rate: rate, Planned: n, Outcomes: make([]outcome, n)}
	first := *cursor
	*cursor += n
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur + grace)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * 1e9)
				// A request taken before its due time waited for no one:
				// how late the sleep wakes is the generator's own jitter,
				// so its latency runs from the wake-up. A request taken
				// after its due time waited for a busy sender — queueing
				// the system caused — so its latency runs from due time.
				from := due
				if d := time.Until(start.Add(due)); d > 0 {
					time.Sleep(d)
					from = -1
				}
				o := &run.Outcomes[i]
				o.Req = (first + i) % len(stream)
				o.Due = due
				now := time.Now()
				if now.After(deadline) {
					continue
				}
				sent := now.Sub(start)
				if from < 0 {
					from = sent
				}
				o.Sent = true
				o.Lag = sent - due
				o.Status, o.Body, o.Err = do(c, base, stream[o.Req])
				o.Latency = time.Since(start) - from
			}
		}()
	}
	wg.Wait()
	return run
}

// closedLoop sends stream requests back to back from senders goroutines
// sharing c for dur — each sender issues its next request as soon as the
// previous one answers — and returns the outcomes (all marked sent) and
// the completed requests per second.
func closedLoop(c *http.Client, base string, stream []request, cursor *int, dur time.Duration, senders int) (loadRun, float64) {
	var next atomic.Int64
	first := *cursor
	per := make([][]outcome, senders)
	var wg sync.WaitGroup
	start := time.Now()
	for s := range per {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Since(start) < dur {
				req := (first + int(next.Add(1)-1)) % len(stream)
				sent := time.Since(start)
				o := outcome{Req: req, Sent: true, Due: sent}
				o.Status, o.Body, o.Err = do(c, base, stream[req])
				o.Latency = time.Since(start) - sent
				per[s] = append(per[s], o)
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var run loadRun
	for _, outs := range per {
		run.Outcomes = append(run.Outcomes, outs...)
	}
	run.Planned = len(run.Outcomes)
	*cursor += run.Planned
	return run, float64(run.Planned-run.failures()) / elapsed.Seconds()
}

// sent counts the requests that went out.
func (r loadRun) sent() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Sent {
			n++
		}
	}
	return n
}

// latencies returns the sent requests' latencies in ms.
func (r loadRun) latencies() []float64 {
	out := make([]float64, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if o.Sent {
			out = append(out, ms(o.Latency))
		}
	}
	return out
}

// kindSummaries records a run's latency shape overall and per request
// kind.
func kindSummaries(r loadRun, stream []request) map[string]map[string]float64 {
	byKind := map[string][]float64{}
	names := []string{"community", "community_vertices", "membership", "batch"}
	for _, o := range r.Outcomes {
		if o.Sent {
			byKind[names[stream[o.Req].Kind]] = append(byKind[names[stream[o.Req].Kind]], ms(o.Latency))
		}
	}
	out := map[string]map[string]float64{"all": latencySummary(r.latencies())}
	for k, lat := range byKind {
		out[k] = latencySummary(lat)
	}
	return out
}

// latencySummary records a latency sample's shape in the artifact.
func latencySummary(lat []float64) map[string]float64 {
	return map[string]float64{
		"n": float64(len(lat)), "p50": quantile(lat, 0.5), "p75": quantile(lat, 0.75),
		"p90": quantile(lat, 0.9), "p95": quantile(lat, 0.95), "p99": quantile(lat, 0.99),
	}
}

// lags returns how late each sent request left, in ms.
func (r loadRun) lags() []float64 {
	out := make([]float64, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if o.Sent {
			out = append(out, ms(o.Lag))
		}
	}
	return out
}

// failures counts sent requests that errored or got a non-2xx status.
func (r loadRun) failures() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Sent && (o.Err != nil || o.Status/100 != 2) {
			n++
		}
	}
	return n
}

// meetsLimit reports whether a probe kept up: every request sent, none
// failed, and the p99 latency within the limit.
func (r loadRun) meetsLimit() bool {
	return r.sent() == r.Planned && r.failures() == 0 &&
		quantile(r.latencies(), 0.99) <= ms(queryLimitP99)
}
