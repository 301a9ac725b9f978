package cluster

import (
	"testing"
	"time"

	"dgs/internal/wire"
)

func TestNetworkXferTime(t *testing.T) {
	n := Network{Bandwidth: 1 << 20, PerMsg: time.Millisecond}
	// 1 MiB at 1 MiB/s = 1s, plus 1ms per message.
	if got := n.xferTime(1 << 20); got != time.Second+time.Millisecond {
		t.Fatalf("xferTime = %v", got)
	}
	zero := Network{}
	if zero.xferTime(1<<20) != 0 {
		t.Fatalf("zero network must be free")
	}
}

func TestEC2NetworkSane(t *testing.T) {
	n := EC2Network()
	if n.Latency <= 0 || n.Bandwidth <= 0 || n.PerMsg <= 0 {
		t.Fatalf("EC2Network = %+v", n)
	}
	// A 3 MB fragment shipment should cost tens of ms, a falsification
	// should cost well under a millisecond of transfer.
	if big := n.xferTime(3 << 20); big < 10*time.Millisecond {
		t.Fatalf("big transfer too cheap: %v", big)
	}
	if small := n.xferTime(16); small > time.Millisecond {
		t.Fatalf("small transfer too expensive: %v", small)
	}
}

func TestNetworkDelaysDelivery(t *testing.T) {
	c := New(1, Network{Latency: 20 * time.Millisecond})
	defer c.Shutdown()
	done := make(chan time.Time, 1)
	s := openSites(t, c, SessionQuery, []Handler{HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
		done <- time.Now()
	})}, nopHandler{})
	defer s.Close()
	start := time.Now()
	s.Inject(0, &wire.Control{})
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if got := (<-done).Sub(start); got < 15*time.Millisecond {
		t.Fatalf("latency not applied: delivered after %v", got)
	}
}

func TestNetworkLatencyPipelines(t *testing.T) {
	// 10 messages with 30ms latency must arrive in ~30ms total, not
	// 300ms: propagation overlaps.
	c := New(1, Network{Latency: 30 * time.Millisecond})
	defer c.Shutdown()
	s := openSites(t, c, SessionQuery, nopSites(1), nopHandler{})
	defer s.Close()
	start := time.Now()
	for i := 0; i < 10; i++ {
		s.Inject(0, &wire.Control{})
	}
	if err := s.WaitQuiesce(bg); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Fatalf("latency serialized instead of pipelined: %v", el)
	}
}
