package tcpnet

// Codec-level tests for the frame bodies and the chunk writer: golden
// bytes pinning the wire format, buffer ownership of decoded values that
// outlive their frame, the DEPLOY label table, ACKN aggregation, and the
// exact coalescing behavior of writeChunk.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"dgs/internal/cluster"
	"dgs/internal/graph"
	"dgs/internal/obs"
	"dgs/internal/partition"
	"dgs/internal/wire"
)

// goldenFrames are complete frames (length prefix and type included) of
// protocol version 5, recorded from the build that still negotiated
// versions 1–5 while it spoke its default, newest version. They pin the
// byte layout: any change to a frame codec that moves a byte fails here
// and must come with a new ProtocolVersion.
var goldenFrames = map[string]string{
	"hello":         "07000000014447534e0500",
	"open-planless": "1e00000005090000000000000000040000006467706d030000000102030100000004",
	"open-planned":  "2e00000005090000000000000000040000006467706d03000000010203010000000406000000677265656479020000000506",
	"open-traced":   "2e00000005090000000000000000040000006467706d0300000001020301000000040000000000000000efcdab0000000000",
	"deploy": "7a0000000302000000010000000100000004000000000000000000000001000000010000000400000000000000010000006101000000620100000063" +
		"010000000200000002000000010003000000030001000000000000000100000000000100000002000000010000000000000001000000030000000100000000000000",
	"msgb-ackn": "2a0000000b03000000000000000c02000000ffffffff00000000020000000a010100000002000000020000000a02210000000c" +
		"0300000000000000010000000200000096000000000000000300000000000000",
}

// goldenInputs rebuilds the values the golden frames were recorded from.
func goldenInputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{
		"hello": wire.AppendFrame(nil, frameHello, appendU16([]byte(helloMagic), ProtocolVersion)),
	}
	base := cluster.SessionSpec{Algo: "dgpm", Query: []byte{1, 2, 3}, Config: []byte{4}} //lint:allow regconsistent — codec byte-identity probe, the spec never reaches a site
	planned := base
	planned.Planner, planned.Plan = "greedy", []byte{5, 6}
	traced := base
	traced.TraceID = 0xABCDEF
	for name, spec := range map[string]cluster.SessionSpec{"open-planless": base, "open-planned": planned, "open-traced": traced} {
		out[name] = wire.AppendFrame(nil, frameOpen, encodeOpen(openBody{qid: 9, kind: cluster.SessionQuery, spec: spec}))
	}

	b := graph.NewBuilder()
	for _, l := range []string{"a", "b", "a", "c"} {
		b.AddNode(l)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := partition.Build(g, []int32{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["deploy"] = wire.AppendFrame(nil, frameDeploy, deployBodyFor(fr, 2, []int{1}))

	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeChunk(bw, []outEntry{
		{kind: entryMsg, qid: 3, from: -1, to: 0, data: []byte{byte(wire.KindControl), 1}},
		{kind: entryMsg, qid: 3, from: 1, to: 2, data: []byte{byte(wire.KindControl), 2}},
		{kind: entryAck, qid: 3, site: 1, busyNs: 100, rounds: 2},
		{kind: entryAck, qid: 3, site: 1, busyNs: 50, rounds: 1},
	}, nil); err != nil {
		t.Fatal(err)
	}
	out["msgb-ackn"] = buf.Bytes()
	return out
}

// The wire format is pinned byte for byte: HELLO, OPEN in its planless,
// planned and traced forms (an untraced OPEN carries no trace bytes, a
// planless one no plan pair), a small DEPLOY with its label table and
// one fragment, and a coalesced MSGB followed by an ACKN.
func TestWireGolden(t *testing.T) {
	got := goldenInputs(t)
	for name, want := range goldenFrames {
		if h := hex.EncodeToString(got[name]); h != want {
			t.Errorf("%s frame moved:\ngot  %s\nwant %s", name, h, want)
		}
	}
	if len(got) != len(goldenFrames) {
		t.Fatalf("%d golden inputs for %d golden frames", len(got), len(goldenFrames))
	}
}

// A decoded OPEN outlives its frame (the host retains the spec for the
// session), so Query and Config must be copies, not aliases of the
// frame buffer.
func TestDecodeOpenCopiesSpec(t *testing.T) {
	body := encodeOpen(openBody{
		qid:  7,
		kind: cluster.SessionQuery,
		spec: cluster.SessionSpec{Algo: "a", Query: []byte{1, 2, 3}, Config: []byte{9, 8}, Planner: "greedy", Plan: []byte{4, 5}}, //lint:allow regconsistent — codec round-trip probe, the spec never reaches a site
	})
	o, err := decodeOpen(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xFF
	}
	if !bytes.Equal(o.spec.Query, []byte{1, 2, 3}) || !bytes.Equal(o.spec.Config, []byte{9, 8}) {
		t.Fatalf("decoded spec aliases the frame buffer: query=%v config=%v", o.spec.Query, o.spec.Config)
	}
	if o.spec.Planner != "greedy" || !bytes.Equal(o.spec.Plan, []byte{4, 5}) {
		t.Fatalf("decoded plan fields mangled: planner=%q plan=%v", o.spec.Planner, o.spec.Plan)
	}
}

func TestDeployLabelTable(t *testing.T) {
	d := deployBody{
		total:  4,
		hosted: []int{1, 3},
		assign: []int32{0, 1, 2, 3},
		labels: []string{"", "person", "movie"},
		frags:  []byte{0xAA, 0xBB},
	}
	got, err := decodeDeploy(encodeDeploy(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.labels, d.labels) {
		t.Fatalf("labels = %q, want %q", got.labels, d.labels)
	}
	if !bytes.Equal(got.frags, d.frags) || got.total != d.total {
		t.Fatalf("round trip mangled the body: %+v", got)
	}
}

func TestAckNRoundTrip(t *testing.T) {
	a := ackNBody{qid: 3, site: 2, count: 17, busyNs: 123456, rounds: 9}
	got, err := decodeAckN(encodeAckN(a))
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip: got %+v, want %+v", got, a)
	}
	bad := a
	bad.count = 0
	if _, err := decodeAckN(encodeAckN(bad)); err == nil {
		t.Fatal("zero-count ACKN decoded without error")
	}
}

// readChunkFrames writes entries through writeChunk and parses the
// produced byte stream back into frames.
func readChunkFrames(t *testing.T, entries []outEntry) (types []byte, bodies [][]byte, metered int) {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	meter := func(qid uint64, n int) { metered += n }
	if err := writeChunk(bw, entries, meter); err != nil {
		t.Fatal(err)
	}
	if metered != buf.Len() {
		t.Fatalf("meter saw %d bytes, socket saw %d", metered, buf.Len())
	}
	br := bufio.NewReader(&buf)
	for {
		typ, body, err := wire.ReadFrame(br)
		if err != nil {
			return types, bodies, metered
		}
		types = append(types, typ)
		bodies = append(bodies, body)
	}
}

// The coalescer merges only consecutive same-key runs and never
// reorders: message runs split at qid changes and at interleaved acks,
// ack runs split at (qid, site) changes, and a run of one stays a plain
// MSG or ACK.
func TestWriteChunkCoalescing(t *testing.T) {
	msg := func(qid uint64, to int, b byte) outEntry {
		return outEntry{kind: entryMsg, qid: qid, from: -1, to: to, data: []byte{byte(wire.KindControl), b}}
	}
	ack := func(qid uint64, site int, busy, rounds int64) outEntry {
		return outEntry{kind: entryAck, qid: qid, site: site, busyNs: busy, rounds: rounds}
	}
	entries := []outEntry{
		msg(1, 0, 10), msg(1, 1, 11), msg(1, 2, 12), // run → MSGB(3)
		msg(2, 0, 20),                    // qid change → lone MSG
		ack(1, 0, 5, 1), ack(1, 0, 7, 2), // run → ACKN(2)
		ack(1, 1, 3, 0), // site change → lone ACK
		msg(1, 3, 13),   // ack in between → new run, lone MSG
		{kind: entryFrame, qid: 0, frame: wire.AppendFrame(nil, frameBye, nil)},
	}

	types, bodies, _ := readChunkFrames(t, entries)
	want := []byte{frameMsgB, frameMsg, frameAckN, frameAck, frameMsg, frameBye}
	if !bytes.Equal(types, want) {
		t.Fatalf("frame sequence = %v, want %v", types, want)
	}
	qid, batch, err := decodeMsgB(bodies[0])
	if err != nil {
		t.Fatal(err)
	}
	if qid != 1 || len(batch.Msgs) != 3 {
		t.Fatalf("MSGB: qid=%d msgs=%d, want qid=1 msgs=3", qid, len(batch.Msgs))
	}
	for i, m := range batch.Msgs {
		if int(m.To) != i || m.Data[1] != byte(10+i) {
			t.Fatalf("MSGB sub-message %d out of order: to=%d data=%v", i, m.To, m.Data)
		}
	}
	an, err := decodeAckN(bodies[2])
	if err != nil {
		t.Fatal(err)
	}
	if an.count != 2 || an.busyNs != 12 || an.rounds != 3 || an.site != 0 {
		t.Fatalf("ACKN did not aggregate the run: %+v", an)
	}
}

// A run bigger than batchByteCap splits rather than producing one
// oversized MSGB.
func TestWriteChunkRespectsByteCap(t *testing.T) {
	big := make([]byte, batchByteCap/2)
	big[0] = byte(wire.KindControl)
	entries := []outEntry{
		{kind: entryMsg, qid: 1, to: 0, data: big},
		{kind: entryMsg, qid: 1, to: 1, data: big},
		{kind: entryMsg, qid: 1, to: 2, data: big},
	}
	types, _, _ := readChunkFrames(t, entries)
	if len(types) < 2 {
		t.Fatalf("an over-cap run coalesced into %d frame(s)", len(types))
	}
	for _, typ := range types {
		if typ != frameMsg && typ != frameMsgB {
			t.Fatalf("unexpected frame %s in split run", frameName(typ))
		}
	}
}

// A traced planless OPEN emits the plan pair as two empty blobs ahead
// of the trace ID (the decoder tells the two trailing-optional
// extensions apart by remaining length), and round-trips.
func TestEncodeOpenTracedRoundTrip(t *testing.T) {
	for name, spec := range map[string]cluster.SessionSpec{
		"planless": {Algo: "a", Query: []byte{1}, Config: []byte{2}, TraceID: 0xBEEF},                                 //lint:allow regconsistent — codec round-trip probe, the spec never reaches a site
		"planned":  {Algo: "a", Query: []byte{1}, Config: []byte{2}, Planner: "greedy", Plan: []byte{7}, TraceID: 11}, //lint:allow regconsistent — codec round-trip probe, the spec never reaches a site
	} {
		o := openBody{qid: 3, kind: cluster.SessionQuery, spec: spec}
		got, err := decodeOpen(encodeOpen(o))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.spec.TraceID != spec.TraceID {
			t.Fatalf("%s: trace ID = %#x, want %#x", name, got.spec.TraceID, spec.TraceID)
		}
		if got.spec.Planner != spec.Planner || !bytes.Equal(got.spec.Plan, spec.Plan) {
			t.Fatalf("%s: plan fields mangled: %+v", name, got.spec)
		}
	}
}

// The TRACE frame body round-trips multi-site span sets, including the
// coordinator pseudo-site and sites with no spans.
func TestTraceCodecRoundTrip(t *testing.T) {
	spans := []obs.SiteTrace{
		{Site: obs.CoordinatorSite, Spans: []obs.RoundSpan{{Round: 0, BusyNs: 12, MsgsIn: 3, MsgsOut: 1, BytesIn: 90, BytesOut: 14, Rounds: 2}}},
		{Site: 0, Spans: []obs.RoundSpan{{Round: 0, BusyNs: 7, MsgsIn: 1, BytesIn: 9}, {Round: 1, BusyNs: 5, MsgsOut: 2, BytesOut: 31, Rounds: 1}}},
		{Site: 2, Spans: []obs.RoundSpan{}},
	}
	qid, got, err := decodeTrace(encodeTrace(42, spans))
	if err != nil {
		t.Fatal(err)
	}
	if qid != 42 {
		t.Fatalf("qid = %d, want 42", qid)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("span set mangled:\nwant %+v\ngot  %+v", spans, got)
	}
	if _, _, err := decodeTrace([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated TRACE body decoded")
	}
}

// The daemon refuses a DEPLOY whose fragments name a site outside the
// deployment — as a hosted slot, a virtual node's owner or an in-node's
// watcher — or a label outside the shipped dictionary, instead of
// indexing out of range in a site actor later.
func TestDecodeFragSetValidatesIDs(t *testing.T) {
	mk := func(id, owner, watcher int, label graph.Label) *partition.Fragment {
		return &partition.Fragment{
			ID: id, Local: []graph.NodeID{0}, Virtual: []graph.NodeID{1}, InNodes: []graph.NodeID{0},
			Labels:     map[graph.NodeID]graph.Label{0: label, 1: 1},
			Owner:      map[graph.NodeID]int{1: owner},
			InWatchers: map[graph.NodeID][]int{0: {watcher}},
			Succ:       map[graph.NodeID][]graph.NodeID{0: {1}},
		}
	}
	body := func(hosted int, f *partition.Fragment) deployBody {
		return deployBody{total: 2, hosted: []int{hosted}, labels: []string{"", "a"}, frags: partition.AppendFragment(nil, f)}
	}
	if _, why := decodeFragSet(body(0, mk(0, 1, 1, 1))); why != "" {
		t.Fatalf("well-formed shipment refused: %s", why)
	}
	for name, dep := range map[string]deployBody{
		"hosted":   body(2, mk(2, 1, 1, 1)),
		"owner":    body(0, mk(0, 2, 1, 1)),
		"watcher":  body(0, mk(0, 1, 7, 1)),
		"negative": body(0, mk(0, 1, -1, 1)),
		"label":    body(0, mk(0, 1, 1, 2)),
	} {
		if _, why := decodeFragSet(dep); why == "" {
			t.Errorf("%s: out-of-range shipment accepted", name)
		}
	}
}
