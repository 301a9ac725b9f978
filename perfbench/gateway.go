package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dgs"
	"dgs/internal/serve"
)

// applySeq makes the stream's applies run in stream order — the delete
// of an edge before its re-insert — whichever client draws them, and
// lets the oracle log each resulting version in order.
type applySeq struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

func newApplySeq() *applySeq {
	a := &applySeq{}
	a.cond = sync.NewCond(&a.mu)
	return a
}

func (a *applySeq) wait(seq int) {
	a.mu.Lock()
	for a.next != seq {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

func (a *applySeq) done() {
	a.mu.Lock()
	a.next++
	a.mu.Unlock()
	a.cond.Broadcast()
}

// gwCounts is what the clients saw, over the measured window.
type gwCounts struct {
	queries, hits, coalesced  int
	lat, hitLat, pt, overhead samples // ms
	applies                   samples // ms
	applyWait, maint          samples // ms (traced run)
	maintKB, reevaluated      float64
	applyMsgs                 float64 // traced run: Delta + Maintenance messages
	evaluated                 int
	data, wire, ctrl          float64 // bytes of evaluated responses
	msgs, rounds              float64
	seenQueries, seenHits     int // every /query response, warm-up included
	seenCoalesced             int
	dataAll, wireAll          int64
	answers                   []answer
}

// runGateway serves the zipf query mix and the edge-flip writes through
// serve.Server's HTTP handler on loopback, from closed-loop clients with
// one keep-alive connection each.
func runGateway(s spec, cfg config) (*report, error) {
	in, err := genInputs(s, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	tr := cfg.newTracer()
	o := newOracle(in, tr)
	dm, err := startDaemons(s.Daemons)
	if err != nil {
		return nil, err
	}
	d, setups, deploys, err := setUpMedian(s, in, dm, cfg.setupReps, tr)
	if err != nil {
		dm.stop()
		return nil, err
	}
	srv := serve.New(d.dep, in.dict, serve.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.dep.Close()
		dm.stop()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(lis) }()
	base := "http://" + lis.Addr().String()
	stopAll := func() error {
		shutErr := hs.Shutdown(context.Background())
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			shutErr = errors.Join(shutErr, err)
		}
		d.dep.Close()
		return errors.Join(shutErr, dm.stop())
	}

	// The stream's requests ask for the verdict and |Q(G)| only: with the
	// relation attached, a hit's latency follows the popular patterns'
	// answer sizes. The full relations are checked through /query once
	// the measured window closes.
	bodies := make([][]byte, len(in.catalog))
	fullBodies := make([][]byte, len(in.catalog))
	for q, p := range in.catalog {
		bodies[q], err = json.Marshal(serve.QueryRequest{Pattern: p.String()})
		if err == nil {
			fullBodies[q], err = json.Marshal(serve.QueryRequest{Pattern: p.String(), IncludeMatches: true})
		}
		if err != nil {
			stopAll()
			return nil, err
		}
	}

	var (
		mu       sync.Mutex // guards c, rep, next, and the phase fields
		c        gwCounts
		next     int
		t0       time.Time // start of the measured window
		measured bool
		stopped  bool
		seq      = newApplySeq()
		ctx      = context.Background()
	)
	// ready reports whether the measured window has run long enough and
	// holds enough samples for every reported percentile.
	ready := func() bool {
		el := time.Since(t0)
		return el >= cfg.maxSeconds() ||
			(el >= cfg.seconds && cfg.tailsReady(len(c.lat), len(c.applies)))
	}

	doQuery := func(hc *http.Client, i, q int, record, full bool) error {
		root := tr.begin("op.query", -1, i)
		defer tr.end(root)
		sp := tr.begin("serve.Handler /query", root, i)
		req := bodies[q]
		if full {
			req = fullBodies[q]
		}
		start := time.Now()
		resp, err := hc.Post(base+"/query", "application/json", bytes.NewReader(req))
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		lat := time.Since(start)
		tr.end(sp)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/query: %s: %s", resp.Status, bytes.TrimSpace(body))
		}
		var qr serve.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			return fmt.Errorf("/query: %w", err)
		}
		got := truth{ok: qr.OK}
		if got.ok {
			got.pairs = qr.Pairs
		}
		if full {
			p := in.catalog[q]
			got.fp = fingerprint(p, func(u dgs.QNode) []dgs.NodeID { return qr.Matches[p.NodeName(u)] }, qr.OK)
		}
		evaluated := !qr.Cached && !qr.Coalesced
		mu.Lock()
		defer mu.Unlock()
		c.answers = append(c.answers, answer{query: q, version: qr.Version, got: got, full: full})
		c.seenQueries++
		if qr.Cached {
			c.seenHits++
		}
		if qr.Coalesced {
			c.seenCoalesced++
		}
		if evaluated {
			c.dataAll += qr.Stats.DataBytes
			c.wireAll += qr.Stats.WireBytes
		}
		if !record {
			return nil
		}
		c.queries++
		c.lat = append(c.lat, ms(lat))
		switch {
		case qr.Cached:
			c.hits++
			c.hitLat = append(c.hitLat, ms(lat))
		case qr.Coalesced:
			c.coalesced++
		default:
			c.evaluated++
			c.pt = append(c.pt, qr.Stats.PTms)
			c.overhead = append(c.overhead, ms(lat)-qr.Stats.PTms)
			c.data += float64(qr.Stats.DataBytes)
			c.wire += float64(qr.Stats.WireBytes)
			c.ctrl += float64(qr.Stats.ControlBytes)
			c.msgs += float64(qr.Stats.DataMsgs)
			c.rounds += float64(qr.Stats.Rounds)
		}
		return nil
	}

	// doApply sends one edge flip: over HTTP in the timed run, straight
	// to Deployment.Apply (which /apply wraps one-to-one) in the traced
	// run, where its ApplyStats are wanted.
	doApply := func(hc *http.Client, i int, a op, record bool) error {
		seq.wait(a.seq)
		defer seq.done()
		e := in.flips[a.edge]
		opName := "op.insert"
		if a.del {
			opName = "op.delete"
		}
		root := tr.begin(opName, -1, i)
		defer tr.end(root)
		var (
			version uint64
			ast     dgs.ApplyStats
			lat     time.Duration
		)
		if cfg.trace {
			eop := dgs.InsertOp(e[0], e[1])
			if a.del {
				eop = dgs.DeleteOp(e[0], e[1])
			}
			sp := tr.begin("dgs.Deployment.Apply", root, i)
			start := time.Now()
			st, err := d.dep.Apply(ctx, []dgs.EdgeOp{eop})
			lat = time.Since(start)
			tr.end(sp)
			if err != nil {
				return err
			}
			ast, version = st, d.dep.Version()
		} else {
			body, err := json.Marshal(serve.ApplyRequest{Ops: []serve.ApplyOp{{Del: a.del, V: e[0], W: e[1]}}})
			if err != nil {
				return err
			}
			sp := tr.begin("serve.Handler /apply", root, i)
			start := time.Now()
			resp, err := hc.Post(base+"/apply", "application/json", bytes.NewReader(body))
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			lat = time.Since(start)
			tr.end(sp)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("/apply: %s: %s", resp.Status, bytes.TrimSpace(body))
			}
			var ar serve.ApplyResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				return fmt.Errorf("/apply: %w", err)
			}
			version = ar.Version
		}
		mu.Lock()
		defer mu.Unlock()
		if err := o.logApply(version, [][2]dgs.NodeID{e}, a.del); err != nil {
			return err
		}
		if !record {
			return nil
		}
		c.applies = append(c.applies, ms(lat))
		c.applyWait = append(c.applyWait, ms(lat-ast.Delta.Wall-ast.Maintenance.Wall))
		c.maint = append(c.maint, ms(ast.Maintenance.Wall))
		c.maintKB += float64(ast.Maintenance.DataBytes) / 1024
		c.applyMsgs += float64(ast.Delta.DataMsgs + ast.Maintenance.DataMsgs)
		c.reevaluated += float64(ast.Reevaluated)
		return nil
	}

	var wg sync.WaitGroup
	client := func() {
		defer wg.Done()
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		defer tp.CloseIdleConnections()
		hc := &http.Client{Transport: tp}
		for {
			mu.Lock()
			if stopped || (measured && ready()) {
				stopped = true
				mu.Unlock()
				return
			}
			i, record := next, measured
			next++
			if record {
				rep.attempted++
			}
			mu.Unlock()
			a := in.opAt(i)
			var err error
			if a.query >= 0 {
				err = doQuery(hc, i, a.query, record, false)
			} else {
				err = doApply(hc, i, a, record)
			}
			if err != nil && record {
				mu.Lock()
				rep.opFailed(err)
				mu.Unlock()
			}
		}
	}

	var queue, outbox *sampler
	if cfg.trace {
		queue = startSampler(time.Millisecond, func() float64 { return float64(srv.Counters().QueueDepth) })
		outbox = startSampler(5*time.Millisecond, func() float64 {
			m, _ := scrape(d.dep.Metrics())
			return m["dgs_net_outbox_depth"]
		})
	}
	for k := 0; k < s.Clients; k++ {
		wg.Add(1)
		go client()
	}
	time.Sleep(cfg.warm)
	runtime.GC()
	heap := startSampler(time.Millisecond, heapMB)
	alloc0 := allocatedBytes()
	f0s, f0r := d.dep.WireFrames()
	mu.Lock()
	t0, measured = time.Now(), true
	mu.Unlock()
	wg.Wait()
	elapsed := time.Since(t0)
	heapPeak := heap.finish()
	allocMB := float64(allocatedBytes()-alloc0) / (1 << 20)
	f1s, f1r := d.dep.WireFrames()
	var queueMax, outboxMax float64
	if cfg.trace {
		queueMax, outboxMax = queue.finish(), outbox.finish()
	}

	// Correctness and truthfulness, outside the timings.
	vt := &http.Transport{}
	defer vt.CloseIdleConnections()
	vc := &http.Client{Transport: vt}
	for q := range in.catalog {
		if err := doQuery(vc, -1, q, false, true); err != nil {
			rep.mismatch(1, "full-relation query failed: "+err.Error())
		}
	}
	bad, err := o.check(c.answers)
	if err != nil {
		stopAll()
		return nil, err
	}
	rep.mismatch(bad, "responses differ from Simulate at their graph version")
	rep.mismatch(checkWatches(d), "standing queries differ from Simulate on the current graph")
	if err := crossCheck(rep, vc, base, d.dep, &c); err != nil {
		stopAll()
		return nil, err
	}
	counters := srv.Counters()
	var canon, explain samples
	if cfg.trace {
		canon, explain = planTimes(in.catalog, d.dep, tr)
	}
	met, err := scrape(d.dep.Metrics())
	if err != nil {
		stopAll()
		return nil, err
	}
	vf, ef, build := d.part.VfRatio(), d.part.EfRatio(), d.part.BuildTime()
	if err := stopAll(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if err := tr.write(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.Name, cfg.seed)); err != nil {
		return nil, err
	}

	evaluated := float64(c.evaluated)
	ops := float64(len(c.lat) + len(c.applies))
	rep.setE2E(cfg.minTail, setups, c.lat, c.applies, ops/elapsed.Seconds(), c.data/1024/evaluated, heapPeak)
	rep.extra("query_p99_ms", c.lat, 0.99, cfg.minTail)
	rep.note("%-18s %12.4f KB   n=%d", "wire_kb_per_query", c.wire/1024/evaluated, c.evaluated)
	rep.note("%-18s %12.4f      hits=%d of %d queries", "hit_rate", ratio(float64(c.hits), float64(c.queries)), c.hits, c.queries)
	if !cfg.trace {
		return rep, nil
	}

	napply := float64(len(c.applies))
	l := rep.layer
	l["serve.hit_rate"] = ratio(float64(c.hits), float64(c.queries))
	l["serve.coalesced_frac"] = ratio(float64(c.coalesced), float64(c.queries))
	l["serve.hit_ms_p50"] = c.hitLat.p50()
	l["serve.overhead_ms_p50"] = c.overhead.p50()
	l["serve.queue_depth_max"] = queueMax
	l["serve.rejected"] = float64(counters.Rejected)
	l["dgs.apply_wait_ms_p50"] = c.applyWait.p50()
	l["dgs.apply_maint_ms_p50"] = c.maint.p50()
	l["dgs.apply_maint_kb"] = ratio(c.maintKB, napply)
	l["dgs.reevaluated_per_apply"] = ratio(c.reevaluated, napply)
	l["dgs.deploy_ms"] = deploys.p50()
	l["dgs.alloc_mb_per_op"] = allocMB / ops
	l["cluster.rounds_per_query"] = ratio(c.rounds, evaluated)
	l["cluster.msgs_per_query"] = ratio(c.msgs, evaluated)
	l["cluster.session_ms_p50"] = c.pt.p50()
	l["cluster.control_kb_per_query"] = ratio(c.ctrl/1024, evaluated)
	frames := float64(f1s - f0s + f1r - f0r)
	l["tcpnet.frames_per_query"] = ratio(frames, evaluated)
	// The window's frames carry the applies' delta and maintenance
	// sessions too, so their messages count toward the ratio here.
	l["tcpnet.msgs_per_frame"] = ratio(c.msgs+c.applyMsgs, frames)
	l["tcpnet.wire_per_ds"] = ratio(c.wire, c.data)
	l["tcpnet.outbox_depth_max"] = outboxMax
	l["tcpnet.deploy_kb"] = met["dgs_net_deploy_bytes_total"] / 1024
	l["tcpnet.wire_kb_per_query"] = ratio(c.wire/1024, evaluated)
	l["partition.build_ms"] = ms(build)
	l["partition.vf_ratio"] = vf
	l["partition.ef_ratio"] = ef
	l["plan.canonical_us"] = canon.p50()
	l["plan.explain_us"] = explain.p50()
	l["simulation.oracle_ms_p50"] = o.times.p50()
	return rep, nil
}

// crossCheck fails the run unless the deployment's metric registry
// agrees with the per-query Stats the responses carried, /metrics agrees
// with /stats, and both agree with what the clients saw.
func crossCheck(rep *report, hc *http.Client, base string, dep *dgs.Deployment, c *gwCounts) error {
	met, err := scrape(dep.Metrics())
	if err != nil {
		return err
	}
	rep.agree("dgs_data_bytes_total", met["dgs_data_bytes_total"], float64(c.dataAll))
	rep.agree("dgs_wire_bytes_total", met["dgs_wire_bytes_total"], float64(c.wireAll))

	get := func(path string) ([]byte, error) {
		resp, err := hc.Get(base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return io.ReadAll(resp.Body)
	}
	sb, err := get("/stats")
	if err != nil {
		return err
	}
	var st serve.Counters
	if err := json.Unmarshal(sb, &st); err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	mb, err := get("/metrics")
	if err != nil {
		return err
	}
	gw, err := promValues(mb)
	if err != nil {
		return err
	}
	for name, v := range map[string]int64{
		"dgs_gw_queries_total":      st.Queries,
		"dgs_gw_cache_hits_total":   st.Hits,
		"dgs_gw_cache_misses_total": st.Misses,
		"dgs_gw_coalesced_total":    st.Coalesced,
		"dgs_gw_rejected_total":     st.Rejected,
		"dgs_gw_deadline_total":     st.Deadline,
		"dgs_gw_errors_total":       st.Errors,
		"dgs_gw_applies_total":      st.Applies,
		"dgs_graph_version":         int64(st.GraphVersion),
	} {
		rep.agree(name+" (/metrics vs /stats)", gw[name], float64(v))
	}
	rep.agree("/stats queries vs client responses", float64(st.Queries), float64(c.seenQueries))
	rep.agree("/stats hits vs cached responses", float64(st.Hits), float64(c.seenHits))
	rep.agree("/stats coalesced vs coalesced responses", float64(st.Coalesced), float64(c.seenCoalesced))
	return nil
}
