package bench

// The planner experiment (beyond the paper's figures): does the
// selectivity-greedy evaluation order pay? The plan-pt/plan-ds pair
// sweeps the pattern's edge count on the Zipf-labeled web workload at
// 64 sites: each point evaluates the same random queries on a
// planner-on and a WithPlannerDisabled deployment of the same
// fragmentation. The counter fixpoint is confluent — both arms compute
// the identical relation (asserted here) — and both build the same
// label-bucketed engine over the fragment's cached index, so the panels
// isolate the cost effect of evaluation order alone: per-node edge lists
// in ascending selectivity and the seed scan rarest label first, versus
// declaration order.
//
// Panel pair 1 runs with the zero link model, deliberately: the plan
// cannot change the relation, and DS moves only within async-ordering
// jitter, so under the EC2 model both arms would sleep through nearly
// the same message schedule and PT would measure only the link model.
//
// The plan-wpt/plan-wds pair measures standing-query sharing: k
// equivalent Watches absorb one insertion batch (the full
// re-evaluation path) either on one deployment's shared session or on
// k deployments holding one Watch each, whose bills are summed. The
// shared arm's maintenance bill is one window regardless of k; the
// independent arm pays k times.

import (
	"context"
	"fmt"
	"runtime"

	"dgs"
)

// plannerEdgeCounts are the plan-pt sweep positions: |Eq| per pattern,
// with |Vq| chosen so every pattern stays connected and cyclic.
var plannerEdgeCounts = [][2]int{{2, 2}, {4, 4}, {5, 6}, {6, 8}} // {nv, ne}

// plannerReps re-times each query this many times per arm: the arms
// differ only in site compute, so the panel needs tighter averaging
// than the network-bound groups.
const plannerReps = 3

func plannerExp(cfg Config) ([]*Figure, error) {
	ctx := context.Background()

	// Panel pair 1: planned vs unplanned one-shot evaluation, varying
	// |Eq| at 64 sites.
	dict := dgs.NewDict()
	g := dgs.GenWeb(dict, cfg.scaled(webNV/2), cfg.scaled(webNE/2), cfg.Seed)
	part, err := dgs.PartitionTargetRatio(g, 64, dgs.ByVf, 0.25, cfg.Seed)
	if err != nil {
		return nil, err
	}
	planned := Series{Name: "planned"}
	unplanned := Series{Name: "unplanned"}
	for pi, shape := range plannerEdgeCounts {
		nv, ne := shape[0], shape[1]
		// Matching patterns only: a pattern with an absent label (or an
		// empty relation) would hand the planned arm its short-circuit
		// verdict for free and measure nothing about ordering.
		queries := make([]*dgs.Pattern, cfg.Queries)
		for i := range queries {
			for attempt := int64(0); ; attempt++ {
				q := dgs.GenCyclicPattern(dict, nv, ne, cfg.Seed+int64(100*pi+i)+1000*attempt)
				if dgs.Simulate(q, g).Ok() {
					queries[i] = q
					break
				}
				if attempt == 50 {
					return nil, fmt.Errorf("planner |Eq|=%d: no matching pattern found in 50 draws", ne)
				}
			}
		}
		x := fmt.Sprint(ne)
		// Both arms stay resident and the queries interleave between
		// them, so heap state, GC debt and scheduler warmth are shared
		// instead of charged to whichever arm runs first.
		depOn, err := dgs.Deploy(part, dgs.WithNetwork(dgs.Network{}))
		if err != nil {
			return nil, err
		}
		depOff, err := dgs.Deploy(part, dgs.WithNetwork(dgs.Network{}), dgs.WithPlannerDisabled())
		if err != nil {
			depOn.Close()
			return nil, err
		}
		mOn := measurement{part: partMeta(part)}
		mOff := measurement{part: partMeta(part)}
		runArms := func(q *dgs.Pattern, measure bool) error {
			on, err := depOn.Query(ctx, q)
			if err != nil {
				return err
			}
			off, err := depOff.Query(ctx, q)
			if err != nil {
				return err
			}
			if !on.Match.Equal(off.Match) {
				return fmt.Errorf("arms diverge (confluence violated)")
			}
			if measure {
				mOn.add(on.Stats)
				mOff.add(off.Stats)
			}
			return nil
		}
		runtime.GC()
		if err := runArms(queries[0], false); err != nil { // unmeasured warm-up
			depOn.Close()
			depOff.Close()
			return nil, fmt.Errorf("planner |Eq|=%d: %w", ne, err)
		}
		for rep := 0; rep < plannerReps; rep++ {
			for qi, q := range queries {
				if err := runArms(q, true); err != nil {
					depOn.Close()
					depOff.Close()
					return nil, fmt.Errorf("planner |Eq|=%d query %d: %w", ne, qi, err)
				}
			}
		}
		depOn.Close()
		depOff.Close()
		planned.Points = append(planned.Points, mOn.point(x))
		unplanned.Points = append(unplanned.Points, mOff.point(x))
	}
	pt := &Figure{ID: "plan-pt", Title: "selectivity-greedy plan vs declaration order, web graph, 64 sites", XLabel: "|Eq|", YLabel: "PT (ms)", Series: []Series{planned, unplanned}}
	ds := &Figure{ID: "plan-ds", Title: "selectivity-greedy plan vs declaration order, web graph, 64 sites", XLabel: "|Eq|", YLabel: "DS (KB)", Series: []Series{planned, unplanned}}

	// Panel pair 2: shared vs independent maintenance for k overlapping
	// standing queries absorbing one insertion batch.
	dict2 := dgs.NewDict()
	g2 := dgs.GenSynthetic(dict2, cfg.scaled(synNV/8), cfg.scaled(synNE/8), cfg.Seed+1)
	wq := dgs.GenCyclicPatternOver(dict2, 4, 6, 4, cfg.Seed+2)
	shared := Series{Name: "shared"}
	indep := Series{Name: "independent"}
	for _, k := range []int{1, 2, 4, 8} {
		x := fmt.Sprint(k)
		st, meta, err := watchApply(ctx, cfg, g2, wq, k)
		if err != nil {
			return nil, err
		}
		m := measurement{part: meta}
		m.add(st)
		shared.Points = append(shared.Points, m.point(x))
		var sum dgs.Stats
		for i := 0; i < k; i++ {
			st, _, err := watchApply(ctx, cfg, g2, wq, 1)
			if err != nil {
				return nil, err
			}
			sum.Wall += st.Wall
			sum.DataBytes += st.DataBytes
			sum.DataMsgs += st.DataMsgs
			sum.Rounds += st.Rounds
		}
		m = measurement{part: meta}
		m.add(sum)
		indep.Points = append(indep.Points, m.point(x))
	}
	wpt := &Figure{ID: "plan-wpt", Title: "k equivalent standing queries, one insertion batch: shared session vs independent", XLabel: "watches", YLabel: "PT (ms)", Series: []Series{shared, indep}}
	wds := &Figure{ID: "plan-wds", Title: "k equivalent standing queries, one insertion batch: shared session vs independent", XLabel: "watches", YLabel: "DS (KB)", Series: []Series{shared, indep}}
	return []*Figure{pt, ds, wpt, wds}, nil
}

// watchApply deploys a fresh fragmentation of g, registers k Watches of
// q, applies one insertion batch and returns the Apply's maintenance
// bill with the fragmentation's metadata. Every call sees the identical
// graph and batch (same seed, same state → same stream), so arms built
// from it absorb the same work.
func watchApply(ctx context.Context, cfg Config, g *dgs.Graph, q *dgs.Pattern, k int) (dgs.Stats, *PartMeta, error) {
	part, err := dgs.PartitionTargetRatio(g, 8, dgs.ByVf, 0.25, cfg.Seed+3)
	if err != nil {
		return dgs.Stats{}, nil, err
	}
	dep, err := dgs.Deploy(part, dgs.WithNetwork(cfg.network()))
	if err != nil {
		return dgs.Stats{}, nil, err
	}
	defer dep.Close()
	for i := 0; i < k; i++ {
		w, err := dep.Watch(ctx, q)
		if err != nil {
			return dgs.Stats{}, nil, err
		}
		defer w.Close()
	}
	ops := dgs.GenUpdateStream(part.CurrentGraph(), 5, 25, cfg.Seed+4)
	st, err := dep.Apply(ctx, ops)
	if err != nil {
		return dgs.Stats{}, nil, err
	}
	return st.Maintenance, partMeta(part), nil
}
