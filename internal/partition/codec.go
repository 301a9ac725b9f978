package partition

// Fragment shipping: the deploy-time wire encoding a networked
// deployment uses to make a fragment resident at a remote site server
// (cmd/dgsd). The encoding carries exactly the state §2.2 defines —
// local nodes with labels and adjacency, virtual nodes with labels and
// owners, in-nodes with their watcher annotations — and the decoder
// recomputes the derived counters (edge totals, crossing counts), so a
// decoded fragment is Validate-equivalent to the original and ready for
// live mutation (DeleteEdge/InsertEdge bookkeeping included).
//
// Layout (little-endian), per fragment:
//
//	u32 id
//	u32 |Local|,   then per local node:   u32 id, u16 label
//	u32 |Virtual|, then per virtual node: u32 id, u16 label, u32 owner
//	u32 |InNodes|, then per in-node:      u32 id, u32 #watchers, u32 ×watcher
//	per local node (same order as Local): u32 degree, u32 ×target
//
// Graph-level node labels never change under live updates, so labels can
// ship once at deploy time; edges are the mutable part and are mutated
// in place by maintenance sessions after shipping.
//
// The bytes come off a socket, so DecodeFragment treats them as hostile:
// every count is checked against the bytes left before anything is
// sized from it, and the node lists must be strictly ascending (Local
// and Virtual disjoint), as every Fragment keeps them. A decode that
// succeeds therefore re-encodes to exactly the bytes it consumed.

import (
	"fmt"
	"sort"

	"dgs/internal/graph"
	"dgs/internal/wire"
)

func appendU32(dst []byte, x uint32) []byte { return wire.AppendUint32(dst, x) }
func appendU16(dst []byte, x uint16) []byte { return wire.AppendUint16(dst, x) }

// AppendFragment appends f's wire encoding to dst.
func AppendFragment(dst []byte, f *Fragment) []byte {
	dst = appendU32(dst, uint32(f.ID))
	dst = appendU32(dst, uint32(len(f.Local)))
	for _, v := range f.Local {
		dst = appendU32(dst, v)
		dst = appendU16(dst, f.Labels[v])
	}
	dst = appendU32(dst, uint32(len(f.Virtual)))
	for _, v := range f.Virtual {
		dst = appendU32(dst, v)
		dst = appendU16(dst, f.Labels[v])
		dst = appendU32(dst, uint32(f.Owner[v]))
	}
	dst = appendU32(dst, uint32(len(f.InNodes)))
	for _, v := range f.InNodes {
		ws := f.InWatchers[v]
		dst = appendU32(dst, v)
		dst = appendU32(dst, uint32(len(ws)))
		for _, w := range ws {
			dst = appendU32(dst, uint32(w))
		}
	}
	for _, v := range f.Local {
		succ := f.Succ[v]
		dst = appendU32(dst, uint32(len(succ)))
		for _, w := range succ {
			dst = appendU32(dst, w)
		}
	}
	return dst
}

// Minimum encoded sizes, per element, that bound each on-wire count
// against the bytes left: a local node is its id, label and (later) its
// degree; a virtual node its id, label and owner; an in-node its id and
// watcher count; watchers and edge targets are one u32 each.
const (
	minLocalSize   = 4 + 2 + 4
	minVirtualSize = 4 + 2 + 4
	minInNodeSize  = 4 + 4
	u32Size        = 4
)

// readCount reads a u32 element count and refuses one that the remaining
// bytes cannot hold at size bytes per element.
func readCount(r *wire.ByteReader, size int, what string) (int, error) {
	n, err := r.U32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(size) > uint64(r.Remaining()) {
		return 0, fmt.Errorf("partition: %s count %d exceeds the %d bytes left", what, n, r.Remaining())
	}
	return int(n), nil
}

// readAscending reads n node IDs that must be strictly ascending; each
// is followed by whatever per-node fields item reads.
func readAscending(r *wire.ByteReader, n int, what string, item func(v graph.NodeID) error) ([]graph.NodeID, error) {
	ids := make([]graph.NodeID, n)
	for i := range ids {
		v, err := r.U32()
		if err != nil {
			return nil, err
		}
		if i > 0 && v <= ids[i-1] {
			return nil, fmt.Errorf("partition: %s node %d out of order after %d", what, v, ids[i-1])
		}
		ids[i] = v
		if err := item(v); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// DecodeFragment parses one AppendFragment encoding from the front of b
// and returns the fragment plus the remaining bytes.
func DecodeFragment(b []byte) (*Fragment, []byte, error) {
	r := wire.NewByteReader(b)
	id, err := r.U32()
	if err != nil {
		return nil, nil, err
	}
	f := &Fragment{
		ID:         int(id),
		Succ:       make(map[graph.NodeID][]graph.NodeID),
		Labels:     make(map[graph.NodeID]graph.Label),
		Owner:      make(map[graph.NodeID]int),
		InWatchers: make(map[graph.NodeID][]int),
		crossCnt:   make(map[graph.NodeID]int),
	}
	nl, err := readCount(r, minLocalSize, "local")
	if err != nil {
		return nil, nil, err
	}
	if f.Local, err = readAscending(r, nl, "local", func(v graph.NodeID) error {
		l, err := r.U16()
		f.Labels[v] = l
		return err
	}); err != nil {
		return nil, nil, err
	}
	nv, err := readCount(r, minVirtualSize, "virtual")
	if err != nil {
		return nil, nil, err
	}
	if f.Virtual, err = readAscending(r, nv, "virtual", func(v graph.NodeID) error {
		if _, dup := f.Labels[v]; dup {
			return fmt.Errorf("partition: node %d both local and virtual", v)
		}
		l, err := r.U16()
		if err != nil {
			return err
		}
		owner, err := r.U32()
		f.Labels[v] = l
		f.Owner[v] = int(owner)
		return err
	}); err != nil {
		return nil, nil, err
	}
	ni, err := readCount(r, minInNodeSize, "in-node")
	if err != nil {
		return nil, nil, err
	}
	if f.InNodes, err = readAscending(r, ni, "in-node", func(v graph.NodeID) error {
		nw, err := readCount(r, u32Size, "watcher")
		if err != nil {
			return err
		}
		ws := make([]int, nw)
		for j := range ws {
			w, err := r.U32()
			if err != nil {
				return err
			}
			ws[j] = int(w)
		}
		f.InWatchers[v] = ws
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for _, v := range f.Local {
		deg, err := readCount(r, u32Size, "edge")
		if err != nil {
			return nil, nil, err
		}
		if deg == 0 {
			continue
		}
		row := make([]graph.NodeID, deg)
		for j := range row {
			if row[j], err = r.U32(); err != nil {
				return nil, nil, err
			}
		}
		f.Succ[v] = row
		f.numEdges += deg
		for _, w := range row {
			if f.IsVirtual(w) {
				f.numCrossing++
				f.crossCnt[w]++
			}
		}
	}
	return f, r.Rest(), nil
}

// CloneFragment deep-copies f through a codec round-trip. The copy
// shares nothing with the original — in particular not the CSR
// adjacency slices Build lets pristine fragments alias — so it can be
// mutated independently: the re-hosting primitive for in-process
// failover, where a recovered site must start from the driver's
// committed state rather than the survivor's object.
func CloneFragment(f *Fragment) *Fragment {
	c, rest, err := DecodeFragment(AppendFragment(nil, f))
	if err != nil || len(rest) != 0 {
		panic("partition: fragment failed to round-trip its own codec")
	}
	return c
}

// FragmentationFromParts assembles a Fragmentation around fragments that
// were decoded from the wire (no driver graph available — G is nil).
// assign is the global owner directory; boundary statistics are
// recomputed from the fragments. Site servers use this to host their
// shard; note CurrentGraph and Overlay are unavailable without G.
func FragmentationFromParts(assign []int32, frags []*Fragment) *Fragmentation {
	fr := &Fragmentation{Assign: assign, Frags: frags}
	fr.RecountBoundary()
	return fr
}

// ApplyBatchLocal applies a validated update batch directly to every
// fragment of fr within one process — the driver-side replay a networked
// deployment runs so that its fragmentation metadata (boundary counts,
// re-split inputs) stays in lockstep with the daemons' resident
// fragments, which the distributed maintenance session mutates. It
// performs the same mutations as the update session — edge ops at the
// source's fragment, then net watcher fixes at each target's owner — and
// recounts boundary stats. Labels and owners for insertion targets come
// from fr.G and fr.Assign. Errors indicate a validation bug upstream.
func ApplyBatchLocal(fr *Fragmentation, dels, ins [][2]graph.NodeID) error {
	// Track pre-batch virtual status per (fragment, target) so watcher
	// notices reflect the batch's NET effect, exactly like the session.
	type fragTarget struct {
		frag int
		node graph.NodeID
	}
	wasVirtual := make(map[fragTarget]bool)
	record := func(fi int, w graph.NodeID) {
		f := fr.Frags[fi]
		if f.IsLocal(w) {
			return
		}
		k := fragTarget{fi, w}
		if _, seen := wasVirtual[k]; !seen {
			wasVirtual[k] = f.IsVirtual(w)
		}
	}
	for _, e := range dels {
		fi := int(fr.Assign[e[0]])
		record(fi, e[1])
		if _, err := fr.Frags[fi].DeleteEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	for _, e := range ins {
		fi := int(fr.Assign[e[0]])
		record(fi, e[1])
		if _, err := fr.Frags[fi].InsertEdge(e[0], e[1], fr.G.Label(e[1]), int(fr.Assign[e[1]])); err != nil {
			return err
		}
	}
	keys := make([]fragTarget, 0, len(wasVirtual))
	for k := range wasVirtual {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].frag != keys[j].frag {
			return keys[i].frag < keys[j].frag
		}
		return keys[i].node < keys[j].node
	})
	for _, k := range keys {
		was := wasVirtual[k]
		now := fr.Frags[k.frag].IsVirtual(k.node)
		owner := fr.Frags[fr.Assign[k.node]]
		switch {
		case now && !was:
			owner.AddWatcher(k.node, k.frag)
		case was && !now:
			owner.RemoveWatcher(k.node, k.frag)
		}
	}
	fr.RecountBoundary()
	return nil
}
