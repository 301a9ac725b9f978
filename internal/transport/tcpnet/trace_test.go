package tcpnet_test

// Distributed-tracing conformance: the traced-session behaviors every
// backend must share — a complete span tree whose totals reproduce the
// session's Stats, an empty-but-present trace for an idle session (the
// daemons owe one TRACE per traced session even when no message
// flowed), a partial trace — not a hang — when a daemon dies owing its
// spans, and nil for untraced sessions.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dgs/internal/cluster"
	"dgs/internal/obs"
	"dgs/internal/transport/tcpnet"
	"dgs/internal/wire"
)

// traceCtx bounds span collection: a regression that stops TRACE
// frames from resolving the driver's wait must fail the test, not hang
// it for the full go-test timeout.
func traceCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// forEachTraceBackend runs body on every backend with healthy daemons —
// the ones where a trace must come back complete.
func forEachTraceBackend(t *testing.T, n int, body func(t *testing.T, c *cluster.Cluster)) {
	registerTestAlgos()
	for _, be := range []backend{
		{"inproc", func(t *testing.T, n int) *cluster.Cluster {
			return cluster.New(n, cluster.Network{})
		}},
		tcpBackend(1),
		tcpBackend(2),
	} {
		be := be
		t.Run(be.name, func(t *testing.T) {
			c := be.mk(t, n)
			defer c.Shutdown()
			body(t, c)
		})
	}
}

// A traced session yields a complete span tree on every backend:
// coordinator plus every worker site, with message totals equal to the
// session's own accounting (each message counted once at its receiver).
func TestMatrixTraceRoundTrip(t *testing.T) {
	const n = 4
	forEachTraceBackend(t, n, func(t *testing.T, c *cluster.Cluster) {
		var replies int
		coord := cluster.HandlerFunc(func(*cluster.Ctx, int, wire.Payload) { replies++ })
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoReply, TraceID: 77}, coord)
		s.Broadcast(&wire.Control{Op: 1})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		s.Close()
		tr, err := s.Trace(traceCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || tr.TraceID != 77 {
			t.Fatalf("traced session returned trace %+v", tr)
		}
		if !tr.Complete {
			t.Fatal("trace incomplete on a healthy deployment")
		}
		seen := map[int]bool{}
		for _, site := range tr.Sites {
			seen[site.Site] = true
		}
		if !seen[obs.CoordinatorSite] {
			t.Fatalf("trace lacks coordinator spans: %+v", tr.Sites)
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				t.Fatalf("trace lacks site %d spans: %+v", i, tr.Sites)
			}
		}
		_, msgsIn, msgsOut, bytesIn, bytesOut, _ := tr.Totals()
		wantMsgs := st.ControlMsgs + st.DataMsgs + st.ResultMsgs
		wantBytes := st.ControlBytes + st.DataBytes + st.ResultBytes
		if msgsIn != wantMsgs || msgsOut != wantMsgs {
			t.Fatalf("span msgs in=%d out=%d, want %d (stats: %+v)", msgsIn, msgsOut, wantMsgs, st)
		}
		if bytesIn != wantBytes || bytesOut != wantBytes {
			t.Fatalf("span bytes in=%d out=%d, want %d", bytesIn, bytesOut, wantBytes)
		}
	})
}

// A traced session that closes without any traffic still resolves: the
// daemons ship their (empty) TRACE frames on the CLOSE, and the
// driver's wait must find them. This is the regression test for the
// driver dropping its trace wait before the frames arrive.
func TestMatrixTraceIdleSessionResolves(t *testing.T) {
	forEachTraceBackend(t, 3, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoNop, TraceID: 5}, nil)
		s.Close()
		tr, err := s.Trace(traceCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		if tr == nil || !tr.Complete {
			t.Fatalf("idle traced session: trace = %+v", tr)
		}
	})
}

// An untraced session has no trace — on any backend, with no waiting.
func TestMatrixUntracedTraceNil(t *testing.T) {
	forEachBackend(t, 2, func(t *testing.T, c *cluster.Cluster) {
		s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoNop}, nil)
		s.Broadcast(&wire.Control{Op: 1})
		if err := s.WaitQuiesce(bg); err != nil {
			t.Fatal(err)
		}
		s.Close()
		tr, err := s.Trace(traceCtx(t))
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			t.Fatalf("untraced session returned a trace: %+v", tr)
		}
	})
}

// severingListener records the daemon side of every accepted connection
// so a test can kill the daemon's link mid-session.
type severingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *severingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *severingListener) sever() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// A daemon that dies before shipping its TRACE frame must not hang the
// trace collector: Trace resolves well inside its context, reports the
// trace partial, and still carries the coordinator's own spans.
func TestTraceDaemonDiesBeforeTrace(t *testing.T) {
	registerTestAlgos()
	addrs := make([]string, 2)
	var doomed *severingListener
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sl := &severingListener{Listener: lis}
		if i == 0 {
			doomed = sl
		}
		srv := &tcpnet.Server{}
		go srv.Serve(sl)
		t.Cleanup(func() { lis.Close() })
		addrs[i] = lis.Addr().String()
	}
	tr, err := tcpnet.Dial(bg, addrs, trivialFragmentation(t, 3), tcpnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewWithTransport(tr)
	defer c.Shutdown()

	s := open(t, c, cluster.SessionQuery, cluster.SessionSpec{Algo: algoReply, TraceID: 9}, nil)
	s.Broadcast(&wire.Control{Op: 1})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	doomed.sever() // the daemon dies owing the session's spans
	s.Close()

	ctx, cancel := context.WithTimeout(bg, 20*time.Second)
	defer cancel()
	start := time.Now()
	qt, err := s.Trace(ctx)
	if err != nil {
		t.Fatalf("Trace after a daemon loss = %v after %v, want a partial trace", err, time.Since(start))
	}
	if qt == nil || qt.Complete {
		t.Fatalf("trace after a daemon loss = %+v, want a partial trace", qt)
	}
	var coord bool
	for _, site := range qt.Sites {
		coord = coord || site.Site == obs.CoordinatorSite
	}
	if !coord {
		t.Fatalf("partial trace lost the coordinator's spans: %+v", qt.Sites)
	}
}
