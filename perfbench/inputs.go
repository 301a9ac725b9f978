package main

import (
	"fmt"
	"math/rand"

	"dgs"
)

// spec fixes one workload: its inputs' shape and the deployment that
// serves them. Everything random is drawn from the run's seed.
type spec struct {
	Name      string
	Nodes     int    // GenWeb |V|
	Edges     int    // GenWeb |E|
	Partition string // registered partitioner
	Sites     int
	Daemons   int // loopback dgsd-equivalents; 0 = in-process transport
	Algo      dgs.Algorithm
	Clients   int
	Catalog   int     // distinct GenCyclicPatternOver(5,10,4) patterns
	Watches   int     // standing queries taken from the catalog
	Gateway   bool    // requests go through serve.Server over HTTP
	ZipfS     float64 // catalog popularity skew (gateway)
	ApplyEach int     // gateway: every ApplyEach-th op is an apply
	Flips     int     // distinct edges the writes delete and re-insert
	Batch     int     // cold: edges per Apply; the gateway's applies are single edges
}

// specs are the benchmark's workloads. The sizes keep every run's tail
// percentiles backed by at least ten samples within a 20 s run on two
// cores; see README.md for why each workload exists.
var specs = map[string]spec{
	"dgpm-random-inproc": {
		Name: "dgpm-random-inproc", Nodes: 5000, Edges: 25000, Partition: "random", Sites: 128,
		Algo: dgs.AlgoDGPM, Clients: 1, Catalog: 64, Flips: 64, Batch: 16,
	},
	"dmes-ldg-tcp": {
		Name: "dmes-ldg-tcp", Nodes: 5000, Edges: 25000, Partition: "ldg", Sites: 128, Daemons: 2,
		Algo: dgs.AlgoDMes, Clients: 1, Catalog: 64, Flips: 64, Batch: 16,
	},
	"gateway-mix-tcp": {
		Name: "gateway-mix-tcp", Nodes: 5000, Edges: 25000, Partition: "ldg", Sites: 64, Daemons: 2,
		Algo: dgs.AlgoDGPM, Clients: 2, Catalog: 16, Watches: 4, Gateway: true,
		ZipfS: 2.0, ApplyEach: 20, Flips: 8,
	},
}

// inputs are one run's generated inputs.
type inputs struct {
	dict    *dgs.Dict
	g       *dgs.Graph
	catalog []*dgs.Pattern
	order   []int           // cold: the order the client cycles the catalog in
	flips   [][2]dgs.NodeID // edges of g the apply stream toggles
	draws   []uint8         // gateway: zipf-drawn catalog indices
	every   int             // gateway: every every-th op is an apply
}

// streamDraws bounds the pre-drawn gateway stream; it wraps beyond that,
// far past what a 60 s run reaches.
const streamDraws = 1 << 17

// op is one element of the gateway stream: a catalog query, or an apply
// that deletes (even sequence number) or re-inserts (odd) flips[edge].
type op struct {
	query int // catalog index, -1 for an apply
	seq   int // apply sequence number, from 0
	edge  int
	del   bool
}

// opAt returns the i-th operation of the gateway stream.
func (in *inputs) opAt(i int) op {
	if i%in.every == in.every-1 {
		seq := i / in.every
		return op{query: -1, seq: seq, edge: (seq / 2) % len(in.flips), del: seq%2 == 0}
	}
	return op{query: int(in.draws[i%len(in.draws)])}
}

// datasetSeed draws each workload's graph, pattern catalog and partition:
// its fixed dataset and query set, as the paper's evaluation fixes its
// graphs and a benchmark fixes its query templates. Drawn per run, they
// make the percentiles follow whichever long falsification chains, heavy
// patterns and boundary a seed happened to produce, which moved dMes
// latency by more than the noise between runs. The run seed drives the
// rest: the edges the writes toggle and the order of the requests.
const datasetSeed = 1

func genInputs(s spec, seed int64) (*inputs, error) {
	in := &inputs{dict: dgs.NewDict()}
	in.g = dgs.GenWeb(in.dict, s.Nodes, s.Edges, datasetSeed)
	seen := make(map[string]bool)
	cr := rand.New(rand.NewSource(datasetSeed))
	for tries := 0; len(in.catalog) < s.Catalog; tries++ {
		if tries > 100*s.Catalog {
			return nil, fmt.Errorf("inputs: only %d distinct patterns", len(in.catalog))
		}
		q := dgs.GenCyclicPatternOver(in.dict, 5, 10, 4, cr.Int63())
		if k := q.CanonicalKey(); !seen[k] {
			seen[k] = true
			in.catalog = append(in.catalog, q)
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	picked := make(map[[2]dgs.NodeID]bool)
	for tries := 0; len(in.flips) < s.Flips; tries++ {
		if tries > 1000*s.Flips {
			return nil, fmt.Errorf("inputs: only %d flip edges", len(in.flips))
		}
		v := dgs.NodeID(r.Intn(in.g.NumNodes()))
		succ := in.g.Succ(v)
		if len(succ) == 0 {
			continue
		}
		e := [2]dgs.NodeID{v, succ[r.Intn(len(succ))]}
		if !picked[e] {
			picked[e] = true
			in.flips = append(in.flips, e)
		}
	}
	in.order = r.Perm(len(in.catalog))
	if s.Gateway {
		z := rand.NewZipf(r, s.ZipfS, 1, uint64(s.Catalog-1))
		in.every = s.ApplyEach
		in.draws = make([]uint8, streamDraws)
		for i := range in.draws {
			in.draws[i] = uint8(z.Uint64())
		}
	}
	return in, nil
}

// graphWithout rebuilds g minus the given edges: the oracle's input for
// a graph version the apply log says had those edges deleted.
func graphWithout(in *inputs, deleted map[[2]dgs.NodeID]bool) (*dgs.Graph, error) {
	if len(deleted) == 0 {
		return in.g, nil
	}
	b := dgs.NewGraphBuilder(in.dict)
	n := in.g.NumNodes()
	for v := 0; v < n; v++ {
		b.AddNode(in.g.LabelName(dgs.NodeID(v)))
	}
	for v := 0; v < n; v++ {
		for _, w := range in.g.Succ(dgs.NodeID(v)) {
			if !deleted[[2]dgs.NodeID{dgs.NodeID(v), w}] {
				b.AddEdge(dgs.NodeID(v), w)
			}
		}
	}
	return b.Build()
}
