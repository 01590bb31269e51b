package service

import (
	"fmt"
	"strings"
	"sync/atomic"

	"flov/internal/stats"
	"flov/internal/sweep"
)

// metrics is the daemon's counter/histogram set, exported in Prometheus
// text format by the /metrics handler. Counters are monotonic over the
// process lifetime.
type metrics struct {
	jobsAccepted  atomic.Int64
	jobsRejected  atomic.Int64 // admission refusals (queue full)
	jobsDeduped   atomic.Int64 // submissions attached to an in-flight twin
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64 // completed with >= 1 error-carrying point
	jobsCanceled  atomic.Int64

	pointsDone   atomic.Int64
	pointsCached atomic.Int64
	pointsFailed atomic.Int64

	// Fault-scenario observability (points whose job carries a fault spec).
	faultsInjected atomic.Int64 // faults injected across finished points
	packetsDropped atomic.Int64 // packets classified as lost across finished points
	trialsViolated atomic.Int64 // fault-scenario points that tripped a correctness oracle

	panics atomic.Int64 // handler panics caught by the recovery middleware

	jobWallMS   stats.Histogram // submit-to-finish latency per job
	pointWallMS stats.Histogram // execution time per simulated point
}

// render writes the Prometheus exposition. Gauges (queue depth, running
// jobs) and cache counters come from the caller, which owns those.
func (m *metrics) render(b *strings.Builder, queueDepth, running int, draining bool, cache *sweep.Cache) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("flovd_jobs_accepted_total", "jobs admitted to the queue", m.jobsAccepted.Load())
	counter("flovd_jobs_rejected_total", "submissions refused because the queue was full", m.jobsRejected.Load())
	counter("flovd_jobs_deduped_total", "submissions attached to an identical in-flight job", m.jobsDeduped.Load())
	counter("flovd_jobs_completed_total", "jobs run to completion", m.jobsCompleted.Load())
	counter("flovd_jobs_failed_total", "completed jobs with at least one failed point", m.jobsFailed.Load())
	counter("flovd_jobs_canceled_total", "jobs canceled before completion", m.jobsCanceled.Load())
	counter("flovd_points_done_total", "points simulated to completion", m.pointsDone.Load())
	counter("flovd_points_cached_total", "points served from the result cache", m.pointsCached.Load())
	counter("flovd_points_failed_total", "points that errored or panicked", m.pointsFailed.Load())
	counter("flovd_faults_injected_total", "faults injected across finished fault-scenario points", m.faultsInjected.Load())
	counter("flovd_packets_dropped_total", "packets classified as lost across finished points", m.packetsDropped.Load())
	counter("flovd_trials_violated_total", "fault-scenario points that tripped a correctness oracle", m.trialsViolated.Load())
	counter("flovd_handler_panics_total", "HTTP handler panics recovered", m.panics.Load())
	if cache != nil {
		hits, misses, writes := cache.Counters()
		counter("flovd_cache_hits_total", "result-cache lookups that hit, on disk or in memory", hits)
		counter("flovd_cache_misses_total", "result-cache lookups that missed", misses)
		counter("flovd_cache_writes_total", "result-cache entries written", writes)
	}
	gauge("flovd_queue_depth", "jobs queued and not yet running", int64(queueDepth))
	gauge("flovd_jobs_running", "jobs currently executing", int64(running))
	var d int64
	if draining {
		d = 1
	}
	gauge("flovd_draining", "1 while the daemon refuses new work and drains", d)
	histogram(b, "flovd_job_wall_milliseconds", "submit-to-finish job latency", m.jobWallMS.Snapshot())
	histogram(b, "flovd_point_wall_milliseconds", "per-point execution time", m.pointWallMS.Snapshot())
}

// histogram renders a stats.Histogram snapshot as a Prometheus summary:
// coarse power-of-two quantile upper bounds plus exact sum and count.
func histogram(b *strings.Builder, name, help string, s stats.HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
	for _, q := range []float64{50, 90, 99} {
		fmt.Fprintf(b, "%s{quantile=\"0.%.0f\"} %d\n", name, q, s.Percentile(q))
	}
	fmt.Fprintf(b, "%s_sum %d\n%s_count %d\n", name, s.Sum, name, s.Count)
}
