package partition

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"dgs/internal/graph"
)

// randomFragmentation builds a labeled random graph and a random
// assignment — enough structure to exercise every codec field.
func randomFragmentation(t testing.TB, seed int64) *Fragmentation {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	n := 120
	labels := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		b.AddNode(labels[r.Intn(len(labels))])
	}
	seen := map[[2]int]bool{}
	for i := 0; i < 4*n; i++ {
		v, w := r.Intn(n), r.Intn(n)
		if v == w || seen[[2]int{v, w}] {
			continue
		}
		seen[[2]int{v, w}] = true
		b.AddEdge(graph.NodeID(v), graph.NodeID(w))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(r.Intn(5))
	}
	fr, err := Build(g, assign, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestFragmentCodecRoundTrip(t *testing.T) {
	fr := randomFragmentation(t, 42)
	var blob []byte
	for _, f := range fr.Frags {
		blob = AppendFragment(blob, f)
	}
	rest := blob
	decoded := make([]*Fragment, 0, len(fr.Frags))
	for range fr.Frags {
		var f *Fragment
		var err error
		f, rest, err = DecodeFragment(rest)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, f)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	for i, f := range decoded {
		orig := fr.Frags[i]
		if f.ID != orig.ID {
			t.Fatalf("fragment %d: ID %d", i, f.ID)
		}
		if !reflect.DeepEqual(f.Local, orig.Local) || !reflect.DeepEqual(f.Virtual, orig.Virtual) ||
			!reflect.DeepEqual(f.InNodes, orig.InNodes) {
			t.Fatalf("fragment %d: node sets changed across the wire", i)
		}
		if !reflect.DeepEqual(f.Labels, orig.Labels) || !reflect.DeepEqual(f.Owner, orig.Owner) ||
			!reflect.DeepEqual(f.InWatchers, orig.InWatchers) {
			t.Fatalf("fragment %d: annotations changed across the wire", i)
		}
		if !reflect.DeepEqual(f.Succ, orig.Succ) {
			t.Fatalf("fragment %d: adjacency changed across the wire", i)
		}
		if f.NumEdges() != orig.NumEdges() || f.NumCrossing() != orig.NumCrossing() {
			t.Fatalf("fragment %d: derived counters %d/%d, want %d/%d",
				i, f.NumEdges(), f.NumCrossing(), orig.NumEdges(), orig.NumCrossing())
		}
		if !reflect.DeepEqual(f.crossCnt, orig.crossCnt) {
			t.Fatalf("fragment %d: crossCnt diverged — live updates would corrupt the boundary", i)
		}
	}
	// The reassembled fragmentation passes the full §2.2 validation (with
	// the driver's graph reattached for edge-coverage checks).
	re := FragmentationFromParts(fr.Assign, decoded)
	re.G = fr.G
	if err := re.Validate(); err != nil {
		t.Fatalf("decoded fragmentation invalid: %v", err)
	}
	if re.Vf() != fr.Vf() || re.Ef() != fr.Ef() {
		t.Fatalf("boundary stats %d/%d, want %d/%d", re.Vf(), re.Ef(), fr.Vf(), fr.Ef())
	}
}

// Decoded fragments must stay mutable: live updates against shipped
// copies behave exactly like against the originals.
func TestDecodedFragmentMutable(t *testing.T) {
	fr := randomFragmentation(t, 7)
	f0 := fr.Frags[0]
	if len(f0.Local) == 0 || len(f0.Succ) == 0 {
		t.Skip("fragment 0 empty under this seed")
	}
	dec, _, err := DecodeFragment(AppendFragment(nil, f0))
	if err != nil {
		t.Fatal(err)
	}
	var v, w graph.NodeID
	found := false
	for _, lv := range f0.Local {
		if succ := f0.Succ[lv]; len(succ) > 0 {
			v, w = lv, succ[0]
			found = true
			break
		}
	}
	if !found {
		t.Skip("no deletable edge")
	}
	d1, err := f0.DeleteEdge(v, w)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dec.DeleteEdge(v, w)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("virtual-status change diverged: original %v, decoded %v", d1, d2)
	}
	if !reflect.DeepEqual(f0.Succ, dec.Succ) || !reflect.DeepEqual(f0.Virtual, dec.Virtual) {
		t.Fatal("post-mutation state diverged between original and decoded fragment")
	}
}

func TestFragmentDecodeRejectsTruncation(t *testing.T) {
	fr := randomFragmentation(t, 3)
	enc := AppendFragment(nil, fr.Frags[1])
	for cut := 1; cut < len(enc); cut += 7 {
		if _, _, err := DecodeFragment(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// An on-wire count is checked against the bytes left before anything is
// sized from it: 8 bytes claiming 2^32-1 local nodes fail without the
// decoder asking for tens of GiB, and so does an oversized count at
// every other level of the layout.
func TestDecodeFragmentBoundsCounts(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	zero := []byte{0, 0, 0, 0}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	inputs := map[string][]byte{
		"local":   cat(zero, huge),
		"virtual": cat(zero, zero, huge),
		"in-node": cat(zero, zero, zero, huge),
		"watcher": cat(zero, zero, zero, []byte{1, 0, 0, 0}, zero, huge),
		"edge":    cat(zero, []byte{1, 0, 0, 0}, zero, []byte{0, 0}, zero, zero, huge),
	}
	for name, in := range inputs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeFragment(in)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: oversized count decoded", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Fatalf("%s: rejecting %d bytes allocated %d bytes", name, len(in), alloc)
		}
	}
}

// Node lists must be strictly ascending (IsLocal/IsVirtual binary-search
// them) and Local and Virtual disjoint; anything else is refused rather
// than decoded into a fragment whose lookups silently lie.
func TestDecodeFragmentRejectsMalformedNodeLists(t *testing.T) {
	mk := func() *Fragment {
		return &Fragment{
			ID: 1, Local: []graph.NodeID{2, 4}, Virtual: []graph.NodeID{7},
			Labels: map[graph.NodeID]graph.Label{2: 1, 4: 1, 7: 2},
			Owner:  map[graph.NodeID]int{7: 0},
			Succ:   map[graph.NodeID][]graph.NodeID{2: {7}},
		}
	}
	if _, _, err := DecodeFragment(AppendFragment(nil, mk())); err != nil {
		t.Fatalf("well-formed fragment refused: %v", err)
	}
	for name, mut := range map[string]func(g *Fragment){
		"unsorted local":    func(g *Fragment) { g.Local = []graph.NodeID{4, 2} },
		"duplicate local":   func(g *Fragment) { g.Local = []graph.NodeID{2, 2} },
		"local and virtual": func(g *Fragment) { g.Virtual = []graph.NodeID{4} },
		"duplicate in-node": func(g *Fragment) {
			g.InNodes = []graph.NodeID{2, 2}
			g.InWatchers = map[graph.NodeID][]int{2: {0}}
		},
	} {
		g := mk()
		mut(g)
		if _, _, err := DecodeFragment(AppendFragment(nil, g)); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
}

// FuzzDecodeFragment: DecodeFragment is the daemon's trust boundary for
// DEPLOY and REDEPLOY, so no input may panic it, and a decode that
// succeeds must be canonical — re-encoding the fragment reproduces
// exactly the bytes it consumed.
func FuzzDecodeFragment(f *testing.F) {
	fr := randomFragmentation(f, 5)
	for _, frag := range fr.Frags[:2] {
		f.Add(AppendFragment(nil, frag))
	}
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		frag, rest, err := DecodeFragment(b)
		if err != nil {
			return
		}
		consumed := b[:len(b)-len(rest)]
		if re := AppendFragment(nil, frag); !bytes.Equal(re, consumed) {
			t.Fatalf("decode is not canonical:\nin  %x\nout %x", consumed, re)
		}
	})
}

// ApplyBatchLocal must agree with the distributed update session: same
// mutations, same boundary structure, Validate-clean.
func TestApplyBatchLocalKeepsInvariants(t *testing.T) {
	fr := randomFragmentation(t, 99)
	r := rand.New(rand.NewSource(100))
	g := fr.G
	// Collect some existing edges to delete.
	var dels [][2]graph.NodeID
	for v := 0; v < g.NumNodes() && len(dels) < 25; v++ {
		for _, w := range g.Succ(graph.NodeID(v)) {
			if r.Intn(10) == 0 {
				dels = append(dels, [2]graph.NodeID{graph.NodeID(v), w})
				break
			}
		}
	}
	if len(dels) == 0 {
		t.Fatal("no deletions generated")
	}
	if err := ApplyBatchLocal(fr, dels, nil); err != nil {
		t.Fatal(err)
	}
	// Validate needs the overlay to agree on the edge count.
	ov := fr.Overlay()
	for _, e := range dels {
		if err := ov.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.Validate(); err != nil {
		t.Fatalf("after local deletions: %v", err)
	}
	// Re-insert half of them.
	var ins [][2]graph.NodeID
	for i, e := range dels {
		if i%2 == 0 {
			ins = append(ins, e)
		}
	}
	if err := ApplyBatchLocal(fr, nil, ins); err != nil {
		t.Fatal(err)
	}
	for _, e := range ins {
		if err := ov.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.Validate(); err != nil {
		t.Fatalf("after local insertions: %v", err)
	}
}
