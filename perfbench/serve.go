package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"flov/internal/service"
	"flov/internal/service/client"
	"flov/internal/sweep"
)

// serveSetupReps is how many cold daemons one run starts for setup_s.
const serveSetupReps = 3

// serveGrid is the 80-point figure grid a warm daemon re-serves: two
// patterns × two rates × five gated fractions × all four mechanisms, at
// 2k cycles per point.
func serveGrid(seed uint64) sweep.Spec {
	return sweep.Spec{
		Patterns:   []string{"uniform", "tornado"},
		Rates:      []float64{0.02, 0.08},
		GatedFracs: []float64{0, 0.2, 0.4, 0.6, 0.8},
		Mechanisms: []string{"all"},
		Cycles:     2000,
		Warmup:     200,
		Seed:       seed,
	}
}

// serve is an in-process flovd on a loopback listener over a result
// cache in a temporary directory, driven through the Go client.
type serve struct {
	tmpRoot string
	spec    sweep.Spec
	jobs    []sweep.Job

	dir    string // this daemon's temporary directory
	cache  *sweep.Cache
	srv    *service.Server
	hs     *http.Server
	served chan error // the listener goroutine's exit
	cl     *client.Client

	// wire counts response body bytes when the run is traced.
	wire *atomic.Int64
}

func newServe(tmpRoot string, seed uint64, traced bool) (*serve, error) {
	spec := serveGrid(seed)
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	w := &serve{tmpRoot: tmpRoot, spec: spec, jobs: jobs}
	if traced {
		// The client's zero http.Client resolves http.DefaultTransport
		// per request, so wrapping it counts every body byte it reads.
		ct := &countingTransport{base: http.DefaultTransport}
		http.DefaultTransport = ct
		w.wire = &ct.n
	}
	return w, nil
}

func (w *serve) setupReps() int { return serveSetupReps }

// setup replaces any running daemon with a fresh one over an empty cache
// and fills the cache by running the grid once; the time covers both.
func (w *serve) setup(*probes) (opTime, error) {
	if err := w.close(); err != nil {
		return opTime{}, err
	}
	if err := os.MkdirAll(w.tmpRoot, 0o755); err != nil {
		return opTime{}, err
	}
	dir, err := os.MkdirTemp(w.tmpRoot, "serve-")
	if err != nil {
		return opTime{}, err
	}
	w.dir = dir
	sw := startWatch()
	if w.cache, err = sweep.NewCache(filepath.Join(dir, "cache")); err != nil {
		return opTime{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return opTime{}, err
	}
	w.srv = service.New(service.Config{Cache: w.cache, Workers: 1})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.cl = client.New("http://" + ln.Addr().String())

	rows, _, err := w.cl.Run(context.Background(), w.spec, nil)
	if err != nil {
		return opTime{}, fmt.Errorf("cold fill: %w", err)
	}
	t := sw.stop()
	for _, r := range rows {
		if r.Err != "" {
			return opTime{}, fmt.Errorf("cold fill: %s: %s", r.Job.Desc(), r.Err)
		}
	}
	if _, _, writes := w.cache.Counters(); writes != int64(len(w.jobs)) {
		return opTime{}, fmt.Errorf("cold fill wrote %d cache entries, want %d", writes, len(w.jobs))
	}
	return t, nil
}

// rowsOutcome digests the served rows; every one must be a cache hit.
func (w *serve) rowsOutcome(rows []sweep.Result) (outcome, error) {
	d, err := digestJSON(rows)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{digest: d}
	misses := 0
	for _, r := range rows {
		out.cycles += r.SimCycles()
		if !r.CacheHit || r.Err != "" {
			misses++
		}
	}
	if len(rows) != len(w.jobs) || misses > 0 {
		out.fail = fmt.Sprintf("%d of %d points missed the cache", misses+len(w.jobs)-len(rows), len(w.jobs))
	}
	return out, nil
}

// op resubmits the grid and reads the stream to its summary line. With
// probes, the client's stream events are stamped and the cache's
// counters and the bytes on the wire are read around the request.
func (w *serve) op(p *probes) (outcome, opTime, error) {
	if p == nil {
		sw := startWatch()
		rows, _, err := w.cl.Run(context.Background(), w.spec, nil)
		t := sw.stop()
		if err != nil {
			return outcome{}, t, err
		}
		out, err := w.rowsOutcome(rows)
		return out, t, err
	}
	hits0, misses0, _ := w.cache.Counters()
	bytes0 := w.wire.Load()
	p.beginOp()
	accept := p.begin("service.accept", p.root)
	first := p.begin("service.first_row", p.root)
	stream := 0
	onEvent := func(ev service.StreamEvent) {
		switch ev.Type {
		case service.EventAccepted:
			p.end(accept)
		case service.EventPoint:
			if stream == 0 {
				p.end(first)
				stream = p.begin("service.stream", p.root)
			}
		case service.EventSummary:
			if stream != 0 {
				p.end(stream)
			}
		}
	}
	rows, _, err := w.cl.Run(context.Background(), w.spec, onEvent)
	t := p.endOp()
	if err != nil {
		return outcome{}, t, err
	}
	hits, misses, _ := w.cache.Counters()
	p.add("sweep.cache_hits", float64(hits-hits0))
	p.add("sweep.cache_lookups", float64(hits-hits0+misses-misses0))
	p.add("service.stream_bytes", float64(w.wire.Load()-bytes0))
	out, err := w.rowsOutcome(rows)
	return out, t, err
}

// sweepProbeRounds is how many times the direct sweep-layer probe walks
// the grid's jobs.
const sweepProbeRounds = 5

// probeSweep times the sweep layer's own calls on the grid: hashing each
// job, reading it from the warm cache, and writing the row to a scratch
// cache. It runs after the measured loop, so its disk writes cannot
// disturb the ops.
func (w *serve) probeSweep(p *probes) error {
	scratch, err := sweep.NewCache(filepath.Join(w.dir, "scratch"))
	if err != nil {
		return err
	}
	for round := 0; round < sweepProbeRounds; round++ {
		for _, j := range w.jobs {
			s := p.begin("sweep.hash", 0)
			_ = j.Hash()
			p.end(s)
			s = p.begin("sweep.cache_get", 0)
			row, ok := w.cache.Get(j)
			p.end(s)
			if !ok {
				return fmt.Errorf("sweep probe: %s missed the warm cache", j.Desc())
			}
			s = p.begin("sweep.cache_put", 0)
			err := scratch.Put(row)
			p.end(s)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *serve) layerMetrics(p *probes) (map[string]float64, error) {
	if err := w.probeSweep(p); err != nil {
		return nil, err
	}
	us := func(name string) float64 { return median(p.durations(name)) / 1e3 }
	ms := func(name string) float64 { return median(p.durations(name)) / 1e6 }
	m := map[string]float64{
		"sweep.hash_us":        us("sweep.hash"),
		"sweep.cache_get_us":   us("sweep.cache_get"),
		"sweep.cache_put_us":   us("sweep.cache_put"),
		"service.accept_ms":    ms("service.accept"),
		"service.first_row_ms": ms("service.first_row"),
		"service.stream_ms":    ms("service.stream"),
		"service.stream_bytes": median(p.samples["service.stream_bytes"]),
	}
	if lookups := sum(p.samples["sweep.cache_lookups"]); lookups > 0 {
		m["sweep.cache_hit_ratio"] = sum(p.samples["sweep.cache_hits"]) / lookups
	}
	// A p90 is only worth reporting with at least ten samples beyond it.
	if ops := p.durations("op"); len(ops) >= 100 {
		m["service.op_p90_ms"] = quantile(ops, 0.9) / 1e6
	}
	return m, nil
}

// close stops the daemon, waits for its goroutines and removes its
// directory. Safe to call when nothing is running.
func (w *serve) close() error {
	var errs []error
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, w.hs.Shutdown(ctx))
		cancel()
		if err := <-w.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		w.srv.Close()
		w.hs, w.srv = nil, nil
	}
	if w.dir != "" {
		errs = append(errs, os.RemoveAll(w.dir))
		w.dir = ""
	}
	return errors.Join(errs...)
}

// countingTransport counts the response body bytes read through it.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
