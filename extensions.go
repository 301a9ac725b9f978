package dgs

// Extensions beyond the paper's §4–§5 algorithms, following its §7
// future-work directions: dual simulation (the stepping stone to strong
// simulation [24]), incremental maintenance under edge deletions (the
// centralized counterpart of incremental lEval, after [13]), and a
// partition-bounded distributed acyclicity check that discharges dGPMd's
// "DAG G" precondition without assembling the graph.

import (
	"context"

	"dgs/internal/cluster"
	"dgs/internal/dagcheck"
	"dgs/internal/graph"
	"dgs/internal/simulation"
)

// SimulateDual computes the maximum dual simulation of Q in G: plain
// simulation plus the symmetric parent condition. R_dual ⊆ R_sim.
func SimulateDual(q *Pattern, g *Graph) *Match {
	return &Match{m: simulation.DualHHK(q.p, g.g)}
}

// Incremental maintains Q(G) under edge deletions in O(|AFF|) per
// deletion. Edge insertions require recomputation (Resimulate).
type Incremental struct {
	inc *simulation.Incremental
}

// NewIncremental computes the initial relation and returns the
// maintenance state.
func NewIncremental(q *Pattern, g *Graph) *Incremental {
	return &Incremental{inc: simulation.NewIncremental(q.p, g.g)}
}

// DeleteEdge removes (v, w) and refines the relation incrementally.
func (i *Incremental) DeleteEdge(v, w NodeID) error {
	return i.inc.DeleteEdge(graph.NodeID(v), graph.NodeID(w))
}

// Current returns the maintained relation.
func (i *Incremental) Current() *Match { return &Match{m: i.inc.Current()} }

// Affected reports the cumulative |AFF| — variables falsified by
// deletions so far.
func (i *Incremental) Affected() int { return i.inc.Affected() }

// IsDAGDistributed decides the data graph's acyclicity with the
// partition-bounded boundary-summary protocol: per-site local cycle check
// plus in-node→virtual reachability pairs, assembled at the coordinator.
// Data shipment is bounded by Σ|Fi.I|·|Fi.O|, independent of |G|.
func IsDAGDistributed(part *Partition) (bool, Stats) {
	c := cluster.NewLocal(part.fr, cluster.Network{})
	defer c.Shutdown()
	ok, st, err := dagcheck.Eval(context.Background(), c, part.fr)
	if err != nil {
		panic(err) // background context, private cluster: unreachable
	}
	return ok, fromCluster(st)
}
