package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric names one reported number. The end-to-end list is what
// BENCHMARK.json bounds; every workload reports every metric on both
// lists, with 0 for a layer the workload bypasses.
type metric struct {
	name, unit string
}

var endToEnd = []metric{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"apply_p50_ms", "ms"},
	{"apply_p90_ms", "ms"},
	{"ds_kb_per_query", "KB"},
	{"heap_peak_mb", "MB"},
}

var perLayer = []metric{
	{"serve.hit_rate", "ratio"},
	{"serve.coalesced_frac", "ratio"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected", "count"},
	{"dgs.query_overhead_ms_p50", "ms"},
	{"dgs.apply_wait_ms_p50", "ms"},
	{"dgs.apply_maint_ms_p50", "ms"},
	{"dgs.apply_maint_kb", "KB"},
	{"dgs.reevaluated_per_apply", "count"},
	{"dgs.deploy_ms", "ms"},
	{"dgs.alloc_mb_per_op", "MB"},
	{"cluster.rounds_per_query", "count"},
	{"cluster.msgs_per_query", "count"},
	{"cluster.session_ms_p50", "ms"},
	{"cluster.max_site_busy_ms", "ms"},
	{"cluster.control_kb_per_query", "KB"},
	{"cluster.busy_ratio", "ratio"},
	{"dgpm.busy_ms_per_query", "ms"},
	{"dgpm.busy_us_per_msg", "us"},
	{"baseline.busy_ms_per_query", "ms"},
	{"tcpnet.frames_per_query", "count"},
	{"tcpnet.msgs_per_frame", "count"},
	{"tcpnet.wire_per_ds", "ratio"},
	{"tcpnet.outbox_depth_max", "count"},
	{"tcpnet.coord_busy_ms_per_query", "ms"},
	{"tcpnet.deploy_kb", "KB"},
	{"tcpnet.wire_kb_per_query", "KB"},
	{"partition.build_ms", "ms"},
	{"partition.vf_ratio", "ratio"},
	{"partition.ef_ratio", "ratio"},
	{"plan.canonical_us", "us"},
	{"plan.explain_us", "us"},
	{"simulation.oracle_ms_p50", "ms"},
	{"obs.trace_overhead_frac", "ratio"},
}

// report is one run's outcome: the metrics, the operation counts, and
// the human-readable lines printed ahead of the result.
type report struct {
	attempted, failed int
	correct           bool
	e2e, layer        map[string]float64
	lines             []string
	err               error // a tail percentile lacked the samples to report it
}

func newReport() *report {
	return &report{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// opFailed counts a failed operation, keeping the first few errors for
// the printed report.
func (r *report) opFailed(err error) {
	r.failed++
	if r.failed <= 5 {
		r.note("error: %v", err)
	}
}

// mismatch records n wrong answers: each is a failed operation and the
// run is not correct.
func (r *report) mismatch(n int, what string) {
	if n == 0 {
		return
	}
	r.failed += n
	r.correct = false
	r.note("FAIL: %d %s", n, what)
}

// agree fails the run when a metric exposition disagrees with the sum
// the benchmark computed from the per-operation results.
func (r *report) agree(name string, got, want float64) {
	if got != want {
		r.correct = false
		r.note("FAIL: %s reads %.0f, per-operation results sum to %.0f", name, got, want)
	}
}

// timing records a percentile with its sample count, failing the run
// when fewer than minTail samples lie beyond a tail percentile.
func (r *report) timing(name string, s samples, p float64, minTail int) {
	v, beyond := s.quantile(p)
	r.e2e[name] = v
	r.note("%-18s %12.4f ms   n=%d beyond=%d", name, v, len(s), beyond)
	if p > 0.5 && beyond < minTail && r.err == nil {
		r.err = fmt.Errorf("%s: only %d samples beyond it (need %d)", name, beyond, minTail)
	}
	if len(s) == 0 && r.err == nil {
		r.err = fmt.Errorf("%s: no samples", name)
	}
}

func (r *report) value(name string, v float64, unit string, n int) {
	r.e2e[name] = v
	r.note("%-18s %12.4f %s   n=%d", name, v, unit, n)
}

// setE2E fills the end-to-end metrics common to every workload.
func (r *report) setE2E(minTail int, setups, queries, applies samples, opsPerS, dsKB, heapMB float64) {
	r.value("setup_s", setups.p50(), "s", len(setups))
	r.timing("query_p50_ms", queries, 0.5, minTail)
	r.timing("query_p90_ms", queries, 0.9, minTail)
	r.value("ops_per_s", opsPerS, "1/s", r.attempted)
	r.timing("apply_p50_ms", applies, 0.5, minTail)
	r.timing("apply_p90_ms", applies, 0.9, minTail)
	r.value("ds_kb_per_query", dsKB, "KB", len(queries))
	r.value("heap_peak_mb", heapMB, "MB", 1)
}

// extra prints a tail percentile the JSON result does not carry, when
// enough samples back it.
func (r *report) extra(name string, s samples, p float64, minTail int) {
	v, beyond := s.quantile(p)
	if beyond < minTail {
		r.note("%-18s %12s      n=%d beyond=%d (too few samples to report)", name, "-", len(s), beyond)
		return
	}
	r.note("%-18s %12.4f ms   n=%d beyond=%d", name, v, len(s), beyond)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the report: human-readable lines, then the JSON result
// carrying the end-to-end metrics (trace=false) or the per-layer ones.
func (r *report) emit(w io.Writer, trace bool) error {
	r.note("%-18s %12.6f      (%d of %d operations)", "failed_frac", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if trace {
		for _, m := range perLayer {
			r.note("%-32s %14.6f %s", m.name, r.layer[m.name], m.unit)
		}
		if br := r.layer["cluster.busy_ratio"]; br > 1 {
			r.note("WARNING: cluster.busy_ratio %.2f > 1 is physically implausible (site busy time includes lock waits)", br)
		}
	}
	for _, l := range r.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	list, vals := endToEnd, r.e2e
	if trace {
		list, vals = perLayer, r.layer
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, m := range list {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
