package dagcheck

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/partition"
)

// isDAG runs the protocol on a private in-process cluster.
func isDAG(t testing.TB, fr *partition.Fragmentation) (bool, cluster.Stats) {
	t.Helper()
	c := cluster.NewLocal(fr, cluster.Network{})
	defer c.Shutdown()
	ok, st, err := Eval(context.Background(), c, fr)
	if err != nil {
		t.Fatal(err)
	}
	return ok, st
}

func fragmentify(t testing.TB, g *graph.Graph, nf int, seed int64) *partition.Fragmentation {
	t.Helper()
	fr, err := partition.Random(g, nf, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestLocalCycleDetected(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("A")
	b.AddNode("A")
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	g := b.MustBuild()
	fr, err := partition.Build(g, []int32{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := isDAG(t, fr)
	if ok {
		t.Fatal("local 2-cycle missed")
	}
}

func TestCrossFragmentCycleDetected(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 with every node on its own site: the cycle is
	// invisible locally and must be caught on the boundary graph.
	b := graph.NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddNode("A")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.MustBuild()
	fr, err := partition.Build(g, []int32{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ok, stats := isDAG(t, fr)
	if ok {
		t.Fatal("cross-fragment cycle missed")
	}
	if stats.DataMsgs == 0 {
		t.Fatal("summaries must have been shipped")
	}
}

func TestChainIsDAG(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode("A")
	}
	for i := 0; i < 5; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	g := b.MustBuild()
	fr, err := partition.Build(g, []int32{0, 1, 2, 0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := isDAG(t, fr); !ok {
		t.Fatal("chain wrongly reported cyclic")
	}
}

func TestSummarizePairs(t *testing.T) {
	// Fragment 0 = {0,1}, fragment 1 = {2}; edges 2->0, 1->2: node 0 is
	// an in-node of frag 0 reaching virtual node 2 via 0->1->2.
	b := graph.NewBuilder()
	b.AddNode("A")
	b.AddNode("A")
	b.AddNode("A")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g := b.MustBuild()
	fr, err := partition.Build(g, []int32{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cyclic, pairs := Summarize(fr.Frags[0])
	if cyclic {
		t.Fatal("fragment 0 has no local cycle")
	}
	if len(pairs) != 1 || pairs[0] != [2]uint32{0, 2} {
		t.Fatalf("pairs = %v", pairs)
	}
}

// Property: the distributed verdict equals the centralized one on random
// graphs and partitions.
func TestQuickAgreesWithCentralized(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 2 + int(n8)%40
		b := graph.NewBuilder()
		for i := 0; i < nv; i++ {
			b.AddNode("A")
		}
		// Sparse graphs so both verdicts occur.
		for i := r.Intn(nv + nv/2); i > 0; i-- {
			v, w := r.Intn(nv), r.Intn(nv)
			if v != w || r.Intn(4) == 0 {
				b.AddEdge(graph.NodeID(v), graph.NodeID(w))
			}
		}
		g := b.MustBuild()
		want := graph.IsDAG(g)
		fr := fragmentify(t, g, 1+r.Intn(5), seed)
		got, _ := isDAG(t, fr)
		if got != want {
			t.Logf("seed %d: distributed=%v centralized=%v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Data shipment is bounded by the boundary sizes, not |G|.
func TestShipmentBoundedByBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := graph.NewBuilder()
	nv := 3000
	for i := 0; i < nv; i++ {
		b.AddNode("A")
	}
	for i := 1; i < nv; i++ {
		b.AddEdge(graph.NodeID(r.Intn(i)), graph.NodeID(i)) // DAG
	}
	g := b.MustBuild()
	fr := fragmentify(t, g, 4, 5)
	_, stats := isDAG(t, fr)
	bound := int64(0)
	for _, f := range fr.Frags {
		bound += int64(len(f.InNodes) * len(f.Virtual))
	}
	// 8 bytes per pair plus per-message framing.
	if stats.DataBytes > bound*8+1024 {
		t.Fatalf("shipment %d exceeds boundary bound %d", stats.DataBytes, bound*8+1024)
	}
}
