package dgpm

// The dGPM driver: wires one site handler per fragment plus a collecting
// coordinator onto a cluster session and runs the three phases of
// Fig. 3 — (1) partial evaluation, (2) asynchronous message passing to
// the fixpoint, (3) assembly of Q(G) at the coordinator Sc.
//
// The handlers install onto a live, persistent cluster (Eval): the same
// substrate serves many queries, each as its own session with isolated
// stats.

import (
	"context"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/simulation"
	"dgs/internal/wire"
)

// Collector is the coordinator handler of dGPM and the variants that
// reuse its report phase (dGPMd, dGPMt): it accumulates the per-site
// matches. Recv is serial per actor, so no locking is needed.
type Collector struct {
	Pairs []wire.VarRef
}

// Recv implements cluster.Handler.
func (c *Collector) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	if m, ok := p.(*wire.Matches); ok {
		c.Pairs = append(c.Pairs, m.Pairs...)
	}
}

// Assemble turns the collected pairs into the canonical match relation
// of a query with nq nodes: the union of partial matches, or ∅ if some
// query node has no match (§4.1 phase 3).
func (c *Collector) Assemble(nq int) *simulation.Match {
	m := simulation.NewMatch(nq)
	for _, r := range c.Pairs {
		m.Sets[r.U] = append(m.Sets[r.U], graph.NodeID(r.V))
	}
	m.Sort()
	return m.Canonical()
}

// Eval evaluates the data-selecting pattern query Q over the
// fragmentation resident on cluster c, with the configured dGPM variant.
// It opens a fresh per-query spec session — the sites, wherever they
// live, instantiate their handlers from the resident fragments — runs
// the protocol to completion (or ctx cancellation), and returns the
// maximum match plus the session's isolated network statistics. The
// cluster stays up; concurrent Eval calls on the same cluster are safe.
// fr must be the fragmentation resident on c (it sizes and documents the
// deployment; the sites evaluate against their own resident copies).
//
// pl is an advisory evaluation plan for q (nil runs unplanned); it ships
// in the session spec, and results are identical either way by the
// fixpoint's confluence. A nonzero traceID asks every site to record
// per-round spans, collected after the session closes into a
// QueryTrace; traceID 0 disables tracing (the trace return is then
// nil).
func Eval(ctx context.Context, c *cluster.Cluster, q *pattern.Pattern, fr *partition.Fragmentation, cfg Config, pl *plan.Plan, traceID uint64) (*simulation.Match, cluster.Stats, *obs.QueryTrace, error) {
	coord := &Collector{}
	spec := cluster.SessionSpec{Algo: Algo, Query: pattern.EncodeBinary(q), Config: EncodeConfig(cfg), TraceID: traceID}
	if pl != nil {
		spec.Planner, spec.Plan = pl.Planner, pl.Encode()
	}
	sess, err := c.OpenSession(cluster.SessionQuery, spec, coord)
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	defer sess.Close()

	start := time.Now()
	// Phase 1+2: partial evaluation and message passing to the fixpoint.
	sess.Broadcast(&wire.Control{Op: OpStart})
	if err := sess.WaitQuiesce(ctx); err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	// Phase 3: the sites report their matches to the coordinator.
	sess.Broadcast(&wire.Control{Op: OpReport})
	if err := sess.WaitQuiesce(ctx); err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	stats, trace, err := sess.Finish(ctx, start)
	if err != nil {
		return nil, cluster.Stats{}, nil, err
	}
	return coord.Assemble(q.NumNodes()), stats, trace, nil
}
