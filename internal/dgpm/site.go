package dgpm

// The per-site protocol logic of dGPM (Fig. 3/4): phase 1 partial
// evaluation on the start signal, phase 2 asynchronous exchange of
// falsified variables along the local dependency graph (procedure lMsg),
// plus the push operation, and phase 3 reporting local matches Q(Fi) to
// the coordinator.

import (
	"sort"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
	"dgs/internal/pattern"
	"dgs/internal/plan"
	"dgs/internal/wire"
)

// Control opcodes shared by the drivers in this module.
const (
	OpStart  = 1 // run initial partial evaluation
	OpReport = 2 // ship local matches to the coordinator
)

// Config selects the dGPM variant.
type Config struct {
	// Incremental enables the incremental local evaluation of §4.2.
	// Disabled, every received batch triggers re-evaluation from scratch
	// (the dGPMNOpt baseline).
	Incremental bool
	// Push enables the push operation of §4.2.
	Push bool
	// Theta is the push benefit threshold θ (the paper fixes 0.2).
	Theta float64
}

// DefaultConfig is full dGPM: both optimizations on, θ = 0.2 (§6).
func DefaultConfig() Config { return Config{Incremental: true, Push: true, Theta: 0.2} }

// NOptConfig is dGPMNOpt: no incremental evaluation, no push.
func NOptConfig() Config { return Config{} }

type site struct {
	q      *pattern.Pattern
	frag   *partition.Fragment
	assign []int32 // owner directory (IRI/hashing stand-in, §2.2)
	cfg    Config
	// pl is the session's advisory evaluation plan (nil: declaration
	// order). Rebuild paths reuse it — the plan depends only on the
	// query and the deployment's immutable label statistics.
	pl *plan.Plan

	eng *Engine

	// extraWatch extends InWatchers with reroute destinations (§4.2
	// dependency-graph rewiring after a push).
	extraWatch map[graph.NodeID][]int
	// pushedTo records parents already sent a push.
	pushedTo map[int]bool
	// pushDecided is set once the benefit test has been evaluated with a
	// real extraction; a site outsources its equations at most once.
	pushDecided bool

	// dGPMNOpt state: everything external learned so far, and the in-node
	// falsifications already reported, so rebuilds do not resend.
	extFalse []wire.VarRef
	reported map[wire.VarRef]bool

	// pending buffers messages that raced ahead of the start signal: a
	// fast neighbor may evaluate and ship falsifications before the
	// coordinator's broadcast reaches this site.
	pending []wire.Payload
}

func newSite(q *pattern.Pattern, frag *partition.Fragment, assign []int32, cfg Config, pl *plan.Plan) *site {
	return &site{
		q:          q,
		frag:       frag,
		assign:     assign,
		cfg:        cfg,
		pl:         pl,
		extraWatch: make(map[graph.NodeID][]int),
		pushedTo:   make(map[int]bool),
		reported:   make(map[wire.VarRef]bool),
	}
}

func (s *site) Recv(ctx *cluster.Ctx, from int, p wire.Payload) {
	if s.eng == nil {
		// Not started yet: only OpStart may be processed now.
		if c, ok := p.(*wire.Control); !ok || c.Op != OpStart {
			s.pending = append(s.pending, p)
			return
		}
	}
	switch m := p.(type) {
	case *wire.Control:
		switch m.Op {
		case OpStart:
			s.eng = NewEngine(s.q, s.frag, s.pl)
			if !s.cfg.Incremental {
				// Seed the reported set from the initial evaluation so a
				// later rebuild does not resend these.
				s.flushTracked(ctx, s.eng.Drain())
			} else {
				s.flush(ctx, s.eng.Drain())
			}
			s.maybePush(ctx)
			for _, buf := range s.pending {
				s.Recv(ctx, from, buf)
			}
			s.pending = nil
		case OpReport:
			ctx.Send(cluster.Coordinator, &wire.Matches{
				Frag:  uint16(s.frag.ID),
				Pairs: s.eng.LocalMatches(),
			})
		}
	case *wire.Falsify:
		ctx.AddRounds(1)
		if s.cfg.Incremental {
			s.eng.ApplyFalsifications(m.Pairs)
			s.flush(ctx, s.eng.Drain())
		} else {
			// dGPMNOpt: full re-evaluation from scratch on every message.
			s.extFalse = append(s.extFalse, m.Pairs...)
			s.eng = NewEngine(s.q, s.frag, s.pl)
			s.eng.ApplyFalsifications(s.extFalse)
			s.flushTracked(ctx, s.eng.Drain())
		}
		s.maybePush(ctx)
	case *wire.Push:
		ctx.AddRounds(1)
		s.eng.InstallEquations(m.Eqs)
		s.flush(ctx, s.eng.Drain())
	case *wire.Delta:
		// Maintenance sessions only (query sessions never receive deltas):
		// refine the standing engine under the batch's edge deletions and
		// ship the resulting falsifications along the usual lMsg paths.
		ctx.AddRounds(1)
		dels := make([][2]graph.NodeID, len(m.Dels))
		for i, d := range m.Dels {
			dels[i] = [2]graph.NodeID{graph.NodeID(d[0]), graph.NodeID(d[1])}
		}
		s.eng.ApplyEdgeDeletions(dels)
		s.flush(ctx, s.eng.Drain())
	case *wire.Reroute:
		dest := int(m.Dest)
		var backfill []wire.VarRef
		for _, nv := range m.Nodes {
			v := graph.NodeID(nv)
			s.extraWatch[v] = append(s.extraWatch[v], dest)
			// The new watcher missed falsifications that predate the
			// reroute; resend them (falsifications are idempotent).
			if s.eng != nil {
				backfill = append(backfill, s.eng.DeadLocalVars(v)...)
			}
		}
		if len(backfill) > 0 {
			ctx.Send(dest, &wire.Falsify{Pairs: backfill})
		}
	}
}

// flush routes freshly falsified in-node variables to every site that
// watches them (procedure lMsg, Fig. 4): the sites holding the in-node as
// a virtual node, plus any rerouted push parents.
func (s *site) flush(ctx *cluster.Ctx, pairs []wire.VarRef) {
	if len(pairs) == 0 {
		return
	}
	perDest := make(map[int][]wire.VarRef)
	for _, r := range pairs {
		v := graph.NodeID(r.V)
		for _, w := range s.frag.InWatchers[v] {
			perDest[w] = append(perDest[w], r)
		}
		for _, w := range s.extraWatch[v] {
			perDest[w] = append(perDest[w], r)
		}
	}
	dests := make([]int, 0, len(perDest))
	for d := range perDest {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		ctx.Send(d, &wire.Falsify{Pairs: dedupe(perDest[d])})
	}
}

// flushTracked is flush with resend suppression for the rebuild-from-
// scratch variant: a rebuild re-derives earlier falsifications, which must
// not be shipped again.
func (s *site) flushTracked(ctx *cluster.Ctx, pairs []wire.VarRef) {
	fresh := pairs[:0]
	for _, r := range pairs {
		if !s.reported[r] {
			s.reported[r] = true
			fresh = append(fresh, r)
		}
	}
	s.flush(ctx, fresh)
}

func dedupe(pairs []wire.VarRef) []wire.VarRef {
	if len(pairs) < 2 {
		return pairs
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].V != pairs[j].V {
			return pairs[i].V < pairs[j].V
		}
		return pairs[i].U < pairs[j].U
	})
	out := pairs[:1]
	for _, r := range pairs[1:] {
		if r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}

// maybePush evaluates the benefit function B(Si) = |Fi.O'| / (m·|Fi.I'|)
// (§4.2) and, when it clears θ, ships the equation subsystem to each
// not-yet-pushed parent site, with reroute requests to the leaf owners.
func (s *site) maybePush(ctx *cluster.Ctx) {
	if !s.cfg.Push || s.eng == nil || s.pushDecided {
		return
	}
	inV, virtV := s.eng.UnevaluatedCounts()
	if inV == 0 || virtV == 0 {
		return
	}
	// Cheap upper bound on B(Si): every shipped equation costs at least 8
	// bytes, so m ≥ 8 and B ≤ virtV/(8·inV). Below θ no extraction can
	// clear the bar — skip the fragment-sized extraction work outright.
	if float64(virtV)/(8*float64(inV)) < s.cfg.Theta {
		s.pushDecided = true
		return
	}
	// Extraction below is fragment-sized work; a site evaluates the
	// benefit test once, at its first opportunity with unevaluated
	// variables on both sides, and either pushes or never does.
	s.pushDecided = true
	// Parents and the in-nodes each watches.
	parents := make(map[int][]graph.NodeID)
	for _, v := range s.frag.InNodes {
		for _, w := range s.frag.InWatchers[v] {
			if !s.pushedTo[w] {
				parents[w] = append(parents[w], v)
			}
		}
	}
	if len(parents) == 0 {
		return
	}
	// m: total size of the equations to be sent, in bytes — the paper
	// uses m "to suppress the overhead of shipment" (§4.2), so with
	// θ=0.2 a push happens only when the unevaluated-variable ratio
	// dwarfs the bytes it costs (small, high-leverage subsystems).
	// Shipping large systems wholesale would inflate DS well past the
	// no-push protocol, defeating Theorem 2's bound in practice.
	type planned struct {
		dest   int
		eqs    []wire.Equation
		leaves []graph.NodeID
	}
	var plans []planned
	totalBytes := 0
	dests := make([]int, 0, len(parents))
	for d := range parents {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		eqs, leaves := s.eng.ExtractSubsystem(parents[d])
		if len(eqs) == 0 {
			continue
		}
		for i := range eqs {
			totalBytes += eqs[i].EncodedSize()
		}
		plans = append(plans, planned{dest: d, eqs: eqs, leaves: leaves})
	}
	if len(plans) == 0 {
		return
	}
	m := float64(totalBytes)
	if m == 0 {
		m = 1
	}
	benefit := float64(virtV) / (m * float64(inV))
	if benefit < s.cfg.Theta {
		return
	}
	for _, pl := range plans {
		s.pushedTo[pl.dest] = true
		ctx.Send(pl.dest, &wire.Push{Origin: uint16(s.frag.ID), Eqs: pl.eqs})
		// Ask each leaf owner to also feed the parent.
		perOwner := make(map[int][]uint32)
		for _, leaf := range pl.leaves {
			owner := int(s.assign[leaf])
			if owner == pl.dest {
				continue // the parent owns this leaf; it resolves locally
			}
			perOwner[owner] = append(perOwner[owner], uint32(leaf))
		}
		owners := make([]int, 0, len(perOwner))
		for o := range perOwner {
			owners = append(owners, o)
		}
		sort.Ints(owners)
		for _, o := range owners {
			ctx.Send(o, &wire.Reroute{Dest: uint16(pl.dest), Nodes: perOwner[o]})
		}
	}
}
