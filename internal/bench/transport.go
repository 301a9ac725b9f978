package bench

// The transport experiment (beyond the paper's figures): the identical
// dGPM workload served by the in-process channel network (zero-cost
// links, the setting of every other figure) and by a two-daemon
// loopback-TCP deployment (MSGB/ACKN coalescing). Payload DS is
// near-identical — the same protocol runs either way, modulo
// arrival-order effects on how the asynchronous fixpoint batches
// falsifications — so the comparison isolates what a real wire adds
// (measured frame/ack overhead and transport latency). A third arm
// repeats the TCP deployment with per-query distributed tracing on,
// recording what exact span collection costs on the same workload. This
// is the repro point for the "bounded communication survives a real
// byte stream" claim and for tracing's overhead bound. The per-message
// wire-protocol-1 arm this group once carried is preserved in
// BENCH_TRANSPORT_V1.json.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"dgs"
	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/transport/tcpnet"
	"dgs/internal/wire"
)

// startLoopbackServers starts n tcpnet site servers on loopback and
// returns their addresses plus a shutdown func. Shared by the transport
// and partition experiments.
func startLoopbackServers(n int) (addrs []string, stop func(), err error) {
	listeners := make([]net.Listener, 0, n)
	stop = func() {
		for _, lis := range listeners {
			lis.Close()
		}
	}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := &tcpnet.Server{}
		go srv.Serve(lis)
		listeners = append(listeners, lis)
		addrs = append(addrs, lis.Addr().String())
	}
	return addrs, stop, nil
}

// The storm rows measure the wire path alone: a registered test
// algorithm whose sites do no graph work, only reply to the
// coordinator, so a broadcast/quiesce phase's wall time is frame
// encode + socket + decode + ack accounting and nothing else. The dGPM
// rows above it stay compute-dominated at these dataset sizes; the
// storm is where the coalescer's frame reduction turns into PT.
var stormOnce sync.Once

const (
	stormAlgo   = "bench-storm"
	stormBursts = 16
)

func registerStorm() {
	stormOnce.Do(func() {
		cluster.RegisterAlgorithm(stormAlgo,
			func(spec cluster.SessionSpec, frag *partition.Fragment, assign []int32) (cluster.Handler, error) {
				return cluster.HandlerFunc(func(ctx *cluster.Ctx, from int, p wire.Payload) {
					ctx.Send(cluster.Coordinator, &wire.Matches{Frag: uint16(ctx.Self())})
				}), nil
			})
	})
}

// stormRun drives `phases` rounds over `sites` sites hosted by the
// daemons at addrs; each round is a burst of `stormBursts` back-to-back
// broadcasts (so the wire carries stormBursts×sites messages each way
// before the quiesce barrier — the regime where frame throughput, not
// round-trip latency, sets the pace). Returns mean wall per phase, total frames across the driver's
// sockets, and driver bytes allocated — all per phase.
func stormRun(addrs []string, sites, phases int) (ptMs float64, frames int64, allocKB float64, err error) {
	registerStorm()
	b := graph.NewBuilder()
	assign := make([]int32, sites)
	for i := 0; i < sites; i++ {
		b.AddNode("x")
		assign[i] = int32(i)
	}
	g, err := b.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	fr, err := partition.Build(g, assign, sites)
	if err != nil {
		return 0, 0, 0, err
	}
	tr, err := tcpnet.Dial(context.Background(), addrs, fr, tcpnet.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	c := cluster.NewWithTransport(tr)
	defer c.Shutdown()
	s, err := c.OpenSession(cluster.SessionQuery, cluster.SessionSpec{Algo: stormAlgo},
		cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) {}))
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.Close()
	// One untimed warm-up phase settles connection buffers and the
	// session's actor goroutines before measurement.
	s.Broadcast(&wire.Control{Op: 1})
	if err := s.WaitQuiesce(context.Background()); err != nil {
		return 0, 0, 0, err
	}
	framesSent0, framesRecv0 := tr.Frames()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for p := 0; p < phases; p++ {
		for b := 0; b < stormBursts; b++ {
			s.Broadcast(&wire.Control{Op: 1})
		}
		if err := s.WaitQuiesce(context.Background()); err != nil {
			return 0, 0, 0, err
		}
	}
	el := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	sent, received := tr.Frames()
	np := float64(phases)
	return float64(el.Microseconds()) / 1000 / np,
		(sent - framesSent0 + received - framesRecv0) / int64(phases),
		float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / np,
		nil
}

// transportExp produces the "net-pt"/"net-ds" panels: PT and bytes per
// fragment count |F|, for {in-process, TCP, TCP traced}. The DS panel
// carries payload DS on each backend (equal, by design) plus each TCP
// arm's measured wire bytes; every TCP point also records the frames
// that crossed the driver's sockets and the driver-process heap
// allocated per query (the -benchmem column).
func transportExp(cfg Config) ([]*Figure, error) {
	ctx := context.Background()
	dict := dgs.NewDict()
	g := dgs.GenWeb(dict, cfg.scaled(webNV/2), cfg.scaled(webNE/2), cfg.Seed)
	queries := make([]*dgs.Pattern, cfg.Queries)
	for i := range queries {
		queries[i] = dgs.GenCyclicPatternOver(dict, 5, 10, 4, cfg.Seed+int64(i)*17)
	}

	// Two site servers on loopback, reused across sweep points; at the
	// 64-fragment row each daemon hosts 32 sites, so one connection
	// carries heavily bursty multiplexed traffic — the coalescer's case.
	addrs, stopServers, err := startLoopbackServers(2)
	if err != nil {
		return nil, err
	}
	defer stopServers()

	type arm struct {
		name  string
		opts  []dgs.DeployOption
		qopts []dgs.QueryOption
	}
	// Planner off on every arm, as in the preserved recordings
	// (BENCH_TRANSPORT_PRE_COALESCE.json, BENCH_TRANSPORT_V1.json), so
	// the rows stay comparable with them: a planned OPEN carries a plan
	// blob the earlier arms never shipped. The tcp-traced arm repeats the
	// tcp arm with per-query distributed tracing on: its delta against
	// tcp is the whole cost of exact span recording (the trace ID on
	// OPEN, per-message recording at every site, and the TRACE frames
	// chasing each CLOSE).
	arms := []arm{
		{name: "inproc", opts: []dgs.DeployOption{dgs.WithPlannerDisabled()}},
		{name: "tcp", opts: []dgs.DeployOption{dgs.WithRemoteSites(addrs...), dgs.WithPlannerDisabled()}},
		{name: "tcp-traced", opts: []dgs.DeployOption{dgs.WithRemoteSites(addrs...), dgs.WithPlannerDisabled()},
			qopts: []dgs.QueryOption{dgs.WithTrace()}},
	}

	fragCounts := []int{2, 4, 8, 64}
	pt := &Figure{ID: "net-pt", Title: "in-process vs loopback TCP, dGPM", XLabel: "|F|", YLabel: "PT (ms)"}
	ds := &Figure{ID: "net-ds", Title: "in-process vs loopback TCP, dGPM", XLabel: "|F|", YLabel: "DS (KB)"}
	ptSeries := map[string]*Series{}
	dsSeries := map[string]*Series{}
	wireSeries := map[string]*Series{}
	for _, a := range arms {
		ptSeries[a.name] = &Series{Name: "dGPM/" + a.name}
		dsSeries[a.name] = &Series{Name: "dGPM/" + a.name}
		if a.name != "inproc" {
			wireSeries[a.name] = &Series{Name: "wire/" + a.name}
		}
	}
	storm := &Series{Name: "storm/tcp"}

	for _, nf := range fragCounts {
		part, err := dgs.PartitionTargetRatio(g, nf, dgs.ByVf, 0.25, cfg.Seed)
		if err != nil {
			return nil, err
		}
		x := fmt.Sprint(nf)
		meta := partMeta(part)
		for _, a := range arms {
			dep, err := dgs.Deploy(part, a.opts...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a.name, err)
			}
			m := measurement{part: meta}
			var wire int64
			var ms0 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			for _, q := range queries {
				res, err := dep.Query(ctx, q, a.qopts...)
				if err != nil {
					dep.Close()
					return nil, fmt.Errorf("%s: %w", a.name, err)
				}
				if len(a.qopts) > 0 && (res.Trace == nil || !res.Trace.Complete) {
					dep.Close()
					return nil, fmt.Errorf("%s: traced query returned trace %+v", a.name, res.Trace)
				}
				m.add(res.Stats)
				wire += res.Stats.WireBytes
			}
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			sent, received := dep.WireFrames()
			dep.Close()
			nq := float64(len(queries))
			p := m.point(x)
			p.AllocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / nq
			p.Frames = (sent + received) / int64(len(queries))
			ptSeries[a.name].Points = append(ptSeries[a.name].Points, p)
			dsSeries[a.name].Points = append(dsSeries[a.name].Points, p)
			if ws := wireSeries[a.name]; ws != nil {
				ws.Points = append(ws.Points, Point{
					X: x, DSkb: float64(wire) / 1024 / nq,
					Frames: p.Frames, AllocKB: p.AllocKB, Part: meta,
				})
			}
		}
		ptPhase, frames, allocKB, err := stormRun(addrs, nf, 30)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", storm.Name, err)
		}
		storm.Points = append(storm.Points, Point{
			X: x, PTms: ptPhase, Msgs: int64(2 * stormBursts * nf), Frames: frames, AllocKB: allocKB,
		})
	}
	for _, a := range arms {
		pt.Series = append(pt.Series, *ptSeries[a.name])
		ds.Series = append(ds.Series, *dsSeries[a.name])
	}
	pt.Series = append(pt.Series, *storm)
	ds.Series = append(ds.Series, *wireSeries["tcp"], *wireSeries["tcp-traced"])
	return []*Figure{pt, ds}, nil
}
