package faultnet_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/partition"
	"dgs/internal/transport/faultnet"
	"dgs/internal/wire"
)

var bg = context.Background()

// algoRing forwards each falsify message to the next site, decrementing
// a hop budget carried in the first pair's V field — traffic that keeps
// a session busy for as long as the budget lasts.
const algoRing = "test-faultnet-ring"

func ringSite(ctx *cluster.Ctx, from int, p wire.Payload) {
	f, ok := p.(*wire.Falsify)
	if !ok || len(f.Pairs) == 0 || f.Pairs[0].V == 0 {
		return
	}
	next := (ctx.Self() + 1) % ctx.NumSites()
	ctx.Send(next, &wire.Falsify{Pairs: []wire.VarRef{{U: f.Pairs[0].U, V: f.Pairs[0].V - 1}}})
}

// TestMain registers the ring algorithm once per process (so -count=N
// reruns cannot register it twice) and, after a passing run, fails the
// binary if goroutines outlive the tests.
func TestMain(m *testing.M) {
	cluster.RegisterAlgorithm(algoRing, func(cluster.SessionSpec, *partition.Fragment, []int32) (cluster.Handler, error) {
		return cluster.HandlerFunc(ringSite), nil
	})
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := settleGoroutines(before); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// settleGoroutines waits, with bounded retries, for the goroutine count
// to fall back to base; exiting actors and timers need a moment after
// Shutdown returns. On failure it reports every live stack.
func settleGoroutines(base int) error {
	var n int
	for i := 0; i < 100; i++ {
		if n = runtime.NumGoroutine(); n <= base {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("goroutine leak: %d live after the tests, %d before\n%s", n, base, buf)
}

// openRing opens a query session running the ring algorithm on every
// site.
func openRing(t *testing.T, c *cluster.Cluster) *cluster.Session {
	t.Helper()
	s, err := c.OpenSession(cluster.SessionQuery, cluster.SessionSpec{Algo: algoRing},
		cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) {}))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newChaosCluster(t *testing.T, n int, opts faultnet.Options) (*faultnet.Net, *cluster.Cluster) {
	t.Helper()
	fn := faultnet.Wrap(cluster.NewInProc(n, nil, cluster.Network{}), opts)
	c := cluster.NewWithTransport(fn)
	t.Cleanup(c.Shutdown)
	return fn, c
}

func hops(n int) *wire.Falsify {
	return &wire.Falsify{Pairs: []wire.VarRef{{U: 1, V: uint32(n)}}}
}

// Kill must fail live sessions with an error wrapping
// cluster.ErrSiteLost, report the loss synchronously to the OnSiteLoss
// callback, and leave the cluster suspended rather than dead.
func TestKillFailsSessionWithSiteLost(t *testing.T) {
	fn, c := newChaosCluster(t, 4, faultnet.Options{Seed: 7})
	var loss error
	fn.OnSiteLoss(func(err error) { loss = err })
	s := openRing(t, c)
	defer s.Close()
	s.Inject(0, hops(1<<30)) // effectively endless
	fn.Kill(2)
	if err := s.WaitQuiesce(bg); !errors.Is(err, cluster.ErrSiteLost) {
		t.Fatalf("WaitQuiesce after kill = %v, want ErrSiteLost", err)
	}
	if !errors.Is(loss, cluster.ErrSiteLost) {
		t.Fatalf("loss callback got %v, want ErrSiteLost", loss)
	}
	if got := fn.Lost(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Lost() = %v, want [2]", got)
	}
	if susp, err := c.Suspended(); !susp || !errors.Is(err, cluster.ErrSiteLost) {
		t.Fatalf("Suspended() = %v, %v — kill must suspend, not poison", susp, err)
	}
}

// A suspended cluster fails new sessions with the loss cause; after the
// site is revived and the cluster resumed, sessions work again.
func TestResumeAfterRevive(t *testing.T) {
	fn, c := newChaosCluster(t, 3, faultnet.Options{Seed: 1})
	fn.Kill(1)
	s := openRing(t, c)
	if err := s.WaitQuiesce(bg); !errors.Is(err, cluster.ErrSiteLost) {
		t.Fatalf("session on suspended cluster = %v, want ErrSiteLost", err)
	}
	s.Close()
	fn.Revive(1)
	c.Resume()
	if susp, _ := c.Suspended(); susp {
		t.Fatal("cluster still suspended after Resume")
	}
	s2 := openRing(t, c)
	defer s2.Close()
	s2.Inject(0, hops(10))
	if err := s2.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.DataMsgs != 11 {
		t.Fatalf("DataMsgs = %d, want 11", st.DataMsgs)
	}
}

// A half-open site hangs its sessions silently — exactly the failure a
// heartbeat exists to catch — until DetectSilent plays the timeout.
func TestHalfOpenSilentUntilDetected(t *testing.T) {
	fn, c := newChaosCluster(t, 3, faultnet.Options{Seed: 3})
	fn.HalfOpen(1)
	s := openRing(t, c)
	defer s.Close()
	s.Inject(0, hops(50)) // the ring stalls at the silent site
	ctx, cancel := context.WithTimeout(bg, 300*time.Millisecond)
	defer cancel()
	if err := s.WaitQuiesce(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("half-open site should hang the session, got %v", err)
	}
	if ids := fn.DetectSilent(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("DetectSilent = %v, want [1]", ids)
	}
	if err := s.WaitQuiesce(bg); !errors.Is(err, cluster.ErrSiteLost) {
		t.Fatalf("after detection WaitQuiesce = %v, want ErrSiteLost", err)
	}
}

// With every retirement duplicated, the driver's per-site outstanding
// clamp must absorb the echoes: the session terminates exactly when the
// real work drains, having routed every hop.
func TestDuplicateRetirementsClamped(t *testing.T) {
	_, c := newChaosCluster(t, 4, faultnet.Options{Seed: 11, DupRetire: 1})
	s := openRing(t, c)
	defer s.Close()
	s.Inject(0, hops(100))
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DataMsgs != 101 {
		t.Fatalf("DataMsgs = %d, want 101 — a duplicate retirement leaked past the clamp", st.DataMsgs)
	}
}

// Recover refuses while a site is still marked dead (the in-process
// model of "no spare site"), wrapping ErrSiteLost so callers can tell a
// retryable condition from a poisoned deployment.
func TestRecoverRefusesWhileSiteDown(t *testing.T) {
	fn, _ := newChaosCluster(t, 2, faultnet.Options{Seed: 5})
	fn.Kill(0)
	if err := fn.Recover(bg, nil, false); !errors.Is(err, cluster.ErrSiteLost) {
		t.Fatalf("Recover with a dead site = %v, want ErrSiteLost", err)
	}
}
