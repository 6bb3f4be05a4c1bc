package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// cpuSeconds is the CPU time the process has used, user and system. The
// benchmark runs on shared virtual machines whose CPUs the host takes
// away for whole minutes at a time (steal); a process's CPU time does not
// count stolen time, so throughput per CPU-second holds steady where
// throughput per wall-clock second does not.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// stack is a list of release functions run in reverse order.
type stack struct {
	mu  sync.Mutex
	fns []func()
}

func (s *stack) push(f func()) {
	s.mu.Lock()
	s.fns = append(s.fns, f)
	s.mu.Unlock()
}

// release runs and forgets every pushed function, newest first.
func (s *stack) release() {
	s.mu.Lock()
	fns := s.fns
	s.fns = nil
	s.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// openListeners counts the loopback listeners not yet closed; the
// self-test requires it to be 0 after every run.
var openListeners atomic.Int64

// loopback is an HTTP server on an ephemeral 127.0.0.1 port.
type loopback struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	openListeners.Add(1)
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return lb, nil
}

// close closes the listener and every connection, and waits for the
// serve loop to return.
func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
	openListeners.Add(-1)
}

// newClient returns an HTTP client that keeps one idle connection per
// closed-loop client and host.
func newClient(clients int) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: clients + 4,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 120 * time.Second}, tr
}

// call sends one request with a request ID and returns the status and
// body.
func call(ctx context.Context, c *http.Client, method, url, reqID string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(obs.HeaderRequestID, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON fetches url and decodes a 200 answer into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	code, data, err := call(ctx, c, http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, code, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// promValues sums every sample of each named family in a Prometheus
// text page (all label sets); histogram families are named with their
// _sum / _count suffix.
func promValues(page string, names ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(page, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		for _, want := range names {
			if name != want {
				continue
			}
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", name, err)
			}
			out[name] += v
		}
	}
	return out, nil
}

// allClients runs fn for every closed-loop client concurrently and
// waits for all of them.
func allClients(clients int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// timedSample is one latency sample and when it completed, relative to
// the start of its phase.
type timedSample struct {
	at time.Duration
	ms float64
}

// windows splits the first span of a phase into whole windows of length
// win (one window of length span when span < win) and applies f to the
// latencies completed in each.
func windows(samples []timedSample, span, win time.Duration, f func([]float64) float64) []float64 {
	win = min(win, span)
	n := int(span / win)
	buckets := make([][]float64, n)
	for _, s := range samples {
		if k := int(s.at / win); k < n {
			buckets[k] = append(buckets[k], s.ms)
		}
	}
	out := make([]float64, n)
	for k, b := range buckets {
		out[k] = f(b)
	}
	return out
}

// checkFinite rejects a metric value JSON cannot carry.
func checkFinite(m map[string]metric) error {
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	return nil
}
