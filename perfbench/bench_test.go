package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload so a run takes a couple of seconds while every
// layer it crosses still runs.
func tiny(s spec) spec {
	s.Nodes, s.Edges, s.Sites = 600, 3000, 8
	if s.Gateway {
		s.Catalog = 6
	} else {
		s.Catalog = 4
	}
	return s
}

// TestWorkloadsTiny runs every workload at tiny scale, untraced and
// traced, and checks that the oracle agrees with every answer, the
// metric cross-checks pass, and the result line names each metric of
// its list with the right unit.
func TestWorkloadsTiny(t *testing.T) {
	for name, s := range specs {
		for _, trace := range []bool{false, true} {
			s, trace := tiny(s), trace
			t.Run(name+map[bool]string{false: "/timed", true: "/traced"}[trace], func(t *testing.T) {
				cfg := config{
					seed: 7, seconds: time.Second, trace: trace, outDir: t.TempDir(),
					setupReps: 2, warm: 200 * time.Millisecond, warmOps: 2, minTail: 1,
				}
				rep, err := runSpec(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.err != nil {
					t.Fatal(rep.err)
				}
				var out bytes.Buffer
				if err := rep.emit(&out, trace); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestOracleCatchesWrongAnswer guards the check itself: an answer whose
// relation differs from Simulate's must count as a mismatch.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	in, err := genInputs(tiny(specs["dgpm-random-inproc"]), 3)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(in, nil)
	want, err := o.want(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrong := want
	wrong.pairs++
	bad, err := o.check([]answer{{query: 0, got: want, full: true}, {query: 0, got: wrong}})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("check found %d mismatches, want 1", bad)
	}
	if err := o.logApply(1, in.flips[:1], true); err != nil {
		t.Fatal(err)
	}
	if _, err := o.want(0, 2); err == nil {
		t.Fatal("version 2 is not in the apply log, want an error")
	}
}
