package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dgs"
	"dgs/internal/obs"
)

// coldCounts accumulates the per-query Stats the cold loop sees.
type coldCounts struct {
	queries                  int
	data, wire, ctrl         float64 // bytes
	msgs, rounds             float64
	session, overhead, sbusy samples // ms: Stats.Wall, Query wall − Stats.Wall, MaxSiteBusy
	frames                   float64
}

func (c *coldCounts) add(res *dgs.Result, wall time.Duration) {
	st := res.Stats
	c.queries++
	c.data += float64(st.DataBytes)
	c.wire += float64(st.WireBytes)
	c.ctrl += float64(st.ControlBytes)
	c.msgs += float64(st.DataMsgs)
	c.rounds += float64(st.Rounds)
	c.session = append(c.session, ms(st.Wall))
	c.overhead = append(c.overhead, ms(wall-st.Wall))
	c.sbusy = append(c.sbusy, ms(st.MaxSiteBusy))
}

// traceCounts accumulates the QueryTrace site spans of traced queries.
type traceCounts struct {
	queries             int
	siteBusy, coordBusy time.Duration
	msgsIn              int64
	wall                time.Duration // summed Stats.Wall of the traced queries
	incomplete          int
}

func (t *traceCounts) add(res *dgs.Result) {
	t.queries++
	t.wall += res.Stats.Wall
	qt := res.Trace
	if qt == nil {
		t.incomplete++
		return
	}
	if !qt.Complete {
		t.incomplete++
	}
	for _, s := range qt.Sites {
		for _, sp := range s.Spans {
			if s.Site == obs.CoordinatorSite {
				t.coordBusy += time.Duration(sp.BusyNs)
				continue
			}
			t.siteBusy += time.Duration(sp.BusyNs)
			t.msgsIn += sp.MsgsIn
		}
	}
}

// runCold drives one client through the catalog: each query is followed
// by the deletion and the re-insertion of a batch of edges, so every
// query sees the generated graph and the write path is timed on both
// transports.
// With tracing on, queries alternate traced and untraced on the same
// pattern, which yields the tracing overhead from one run.
func runCold(s spec, cfg config) (*report, error) {
	in, err := genInputs(s, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	tr := cfg.newTracer()
	o := newOracle(in, tr)
	for q := range in.catalog {
		if _, err := o.want(q, 0); err != nil {
			return nil, err
		}
	}
	var dm *daemons
	if s.Daemons > 0 {
		if dm, err = startDaemons(s.Daemons); err != nil {
			return nil, err
		}
	}
	d, setups, deploys, err := setUpMedian(s, in, dm, cfg.setupReps, tr)
	if err != nil {
		if dm != nil {
			dm.stop()
		}
		return nil, err
	}
	stopAll := func() error {
		d.dep.Close()
		if dm != nil {
			return dm.stop()
		}
		return nil
	}

	ctx := context.Background()
	opts := []dgs.QueryOption{dgs.WithAlgorithm(s.Algo)}
	traced := append(opts[:1:1], dgs.WithTrace())
	var (
		qLat, tLat samples
		applies    samples
		applyWait  samples
		cc         coldCounts
		tc         traceCounts
		answers    []answer
		dataSum    int64 // every successful query on d, warm-up included
		wireSum    int64
	)
	query := func(i, qi int, withTrace, record bool) error {
		root := tr.begin("op.query", -1, i)
		defer tr.end(root)
		sp := tr.begin("dgs.Deployment.Query", root, i)
		f0s, f0r := d.dep.WireFrames()
		qo := opts
		if withTrace {
			qo = traced
		}
		t0 := time.Now()
		res, err := d.dep.Query(ctx, in.catalog[qi], qo...)
		lat := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		dataSum += res.Stats.DataBytes
		wireSum += res.Stats.WireBytes
		answers = append(answers, answer{query: qi, version: res.Version,
			got: truthOf(in.catalog[qi], res.Match), full: true})
		if !record {
			return nil
		}
		if withTrace {
			tLat = append(tLat, ms(lat))
			tc.add(res)
			return nil
		}
		qLat = append(qLat, ms(lat))
		cc.add(res, lat)
		f1s, f1r := d.dep.WireFrames()
		cc.frames += float64(f1s - f0s + f1r - f0r)
		return nil
	}
	apply := func(i, j int, isDel bool, record bool) error {
		batch := in.flips[j*s.Batch : (j+1)*s.Batch]
		opName, eops := "op.insert", make([]dgs.EdgeOp, len(batch))
		if isDel {
			opName = "op.delete"
		}
		for k, e := range batch {
			eops[k] = dgs.InsertOp(e[0], e[1])
			if isDel {
				eops[k] = dgs.DeleteOp(e[0], e[1])
			}
		}
		root := tr.begin(opName, -1, i)
		defer tr.end(root)
		sp := tr.begin("dgs.Deployment.Apply", root, i)
		t0 := time.Now()
		ast, err := d.dep.Apply(ctx, eops)
		lat := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		if err := o.logApply(d.dep.Version(), batch, isDel); err != nil {
			return err
		}
		if record {
			applies = append(applies, ms(lat))
			applyWait = append(applyWait, ms(lat-ast.Delta.Wall-ast.Maintenance.Wall))
		}
		return nil
	}

	// Warm-up: one pass over a few patterns and one write pair, untimed.
	for i := 0; i < cfg.warmOps; i++ {
		if err := query(-1, in.order[i%len(in.order)], false, false); err != nil {
			stopAll()
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	for _, isDel := range []bool{true, false} {
		if err := apply(-1, 0, isDel, false); err != nil {
			stopAll()
			return nil, fmt.Errorf("warm-up apply: %w", err)
		}
	}

	var outbox *sampler
	if cfg.trace && dm != nil {
		outbox = startSampler(5*time.Millisecond, func() float64 {
			m, _ := scrape(d.dep.Metrics())
			return m["dgs_net_outbox_depth"]
		})
	}
	runtime.GC()
	heap := startSampler(time.Millisecond, heapMB)
	alloc0 := allocatedBytes()
	start := time.Now()
	var i int
	for ; ; i++ {
		el := time.Since(start)
		if el >= cfg.maxSeconds() || (el >= cfg.seconds && cfg.tailsReady(len(qLat), len(applies))) {
			break
		}
		qi, withTrace := in.order[i%len(in.order)], false
		if cfg.trace {
			qi, withTrace = in.order[(i/2)%len(in.order)], i%2 == 0
		}
		rep.attempted++
		if err := query(i, qi, withTrace, true); err != nil {
			rep.opFailed(err)
			continue
		}
		j := i % (len(in.flips) / s.Batch)
		for _, isDel := range []bool{true, false} {
			rep.attempted++
			if err := apply(i, j, isDel, true); err != nil {
				rep.opFailed(err)
				break
			}
		}
	}
	elapsed := time.Since(start)
	heapPeak := heap.finish()
	outboxMax := 0.0
	if outbox != nil {
		outboxMax = outbox.finish()
	}
	allocMB := float64(allocatedBytes()-alloc0) / (1 << 20)

	// Correctness, outside the timings.
	bad, err := o.check(answers)
	if err != nil {
		stopAll()
		return nil, err
	}
	rep.mismatch(bad, "answers differ from Simulate")
	met, err := scrape(d.dep.Metrics())
	if err != nil {
		stopAll()
		return nil, err
	}
	rep.agree("dgs_data_bytes_total", met["dgs_data_bytes_total"], float64(dataSum))
	rep.agree("dgs_wire_bytes_total", met["dgs_wire_bytes_total"], float64(wireSum))
	deployKB := met["dgs_net_deploy_bytes_total"] / 1024
	vf, ef, build := d.part.VfRatio(), d.part.EfRatio(), d.part.BuildTime()

	var canon, explain samples
	if cfg.trace {
		canon, explain = planTimes(in.catalog, d.dep, tr)
	}
	if err := stopAll(); err != nil {
		return nil, fmt.Errorf("daemons: %w", err)
	}
	if err := tr.write(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.Name, cfg.seed)); err != nil {
		return nil, err
	}

	ops := float64(len(qLat) + len(tLat) + len(applies))
	evaluated := float64(cc.queries)
	rep.setE2E(cfg.minTail, setups, qLat, applies, ops/elapsed.Seconds(), cc.data/1024/evaluated, heapPeak)
	rep.extra("query_p99_ms", qLat, 0.99, cfg.minTail)
	rep.note("%-18s %12.4f KB   n=%d", "wire_kb_per_query", cc.wire/1024/evaluated, cc.queries)
	if !cfg.trace {
		return rep, nil
	}

	l := rep.layer
	l["dgs.query_overhead_ms_p50"] = cc.overhead.p50()
	l["dgs.apply_wait_ms_p50"] = applyWait.p50()
	l["dgs.deploy_ms"] = deploys.p50()
	l["dgs.alloc_mb_per_op"] = allocMB / ops
	l["cluster.rounds_per_query"] = cc.rounds / evaluated
	l["cluster.msgs_per_query"] = cc.msgs / evaluated
	l["cluster.session_ms_p50"] = cc.session.p50()
	l["cluster.max_site_busy_ms"] = cc.sbusy.p50()
	l["cluster.control_kb_per_query"] = cc.ctrl / 1024 / evaluated
	l["cluster.busy_ratio"] = ratio(tc.siteBusy.Seconds(), float64(runtime.GOMAXPROCS(0))*tc.wall.Seconds())
	busyMS := ms(tc.siteBusy) / float64(tc.queries)
	if s.Algo == dgs.AlgoDGPM {
		l["dgpm.busy_ms_per_query"] = busyMS
		l["dgpm.busy_us_per_msg"] = ratio(float64(tc.siteBusy.Microseconds()), float64(tc.msgsIn))
	} else {
		l["baseline.busy_ms_per_query"] = busyMS
	}
	l["tcpnet.frames_per_query"] = cc.frames / evaluated
	l["tcpnet.msgs_per_frame"] = ratio(cc.msgs, cc.frames)
	l["tcpnet.wire_per_ds"] = ratio(cc.wire, cc.data)
	l["tcpnet.outbox_depth_max"] = outboxMax
	l["tcpnet.coord_busy_ms_per_query"] = ms(tc.coordBusy) / float64(tc.queries)
	l["tcpnet.deploy_kb"] = deployKB
	l["tcpnet.wire_kb_per_query"] = cc.wire / 1024 / evaluated
	l["partition.build_ms"] = ms(build)
	l["partition.vf_ratio"] = vf
	l["partition.ef_ratio"] = ef
	l["plan.canonical_us"] = canon.p50()
	l["plan.explain_us"] = explain.p50()
	l["simulation.oracle_ms_p50"] = o.times.p50()
	l["obs.trace_overhead_frac"] = ratio(tLat.p50()-qLat.p50(), qLat.p50())
	if tc.incomplete > 0 {
		rep.mismatch(tc.incomplete, "traces came back incomplete")
	}
	return rep, nil
}

// planTimes times the planning layer on every catalog pattern: the
// canonical key serve caches under, and the deployment's Explain.
func planTimes(catalog []*dgs.Pattern, dep *dgs.Deployment, tr *tracer) (canon, explain samples) {
	for rep := 0; rep < 10; rep++ {
		for _, q := range catalog {
			sp := tr.begin("dgs.Pattern.CanonicalKey", -1, -1)
			t0 := time.Now()
			_ = q.CanonicalKey()
			canon = append(canon, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(sp)
			sp = tr.begin("dgs.Deployment.Explain", -1, -1)
			t0 = time.Now()
			_, err := dep.Explain(q)
			if err == nil {
				explain = append(explain, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			tr.end(sp)
		}
	}
	return canon, explain
}
