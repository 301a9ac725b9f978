package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dgs"
	"dgs/internal/obs"
	"dgs/internal/transport/tcpnet"
)

// daemons are loopback site servers running inside the benchmark
// process; each serves one deployment at a time, like dgsd.
type daemons struct {
	lis  []net.Listener
	wg   sync.WaitGroup
	errs []error
}

func startDaemons(n int) (*daemons, error) {
	d := &daemons{errs: make([]error, n)}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("daemon listen: %w", err)
		}
		d.lis = append(d.lis, lis)
		d.wg.Add(1)
		go func(i int) {
			defer d.wg.Done()
			d.errs[i] = (&tcpnet.Server{}).Serve(lis)
		}(i)
	}
	return d, nil
}

func (d *daemons) addrs() []string {
	out := make([]string, len(d.lis))
	for i, l := range d.lis {
		out[i] = l.Addr().String()
	}
	return out
}

// stop closes the listeners and waits for every daemon to return; call
// it after closing the deployment, whose BYE ends the daemons' sessions.
func (d *daemons) stop() error {
	for _, l := range d.lis {
		l.Close()
	}
	d.wg.Wait()
	return errors.Join(d.errs...)
}

// deployment is one set-up: the partition, the deployment on it and its
// standing queries.
type deployment struct {
	part    *dgs.Partition
	dep     *dgs.Deployment
	watches []*dgs.Maintained
	setup   time.Duration // partition + Deploy + Watch registration
	deploy  time.Duration // Deploy alone
}

// setUp partitions, deploys and registers the workload's standing
// queries, timing the whole as the set-up cost.
func setUp(s spec, in *inputs, dm *daemons, tr *tracer) (*deployment, error) {
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	start := time.Now()
	sp := tr.begin("dgs.PartitionWith", root, -1)
	part, err := dgs.PartitionWith(in.g, s.Partition, s.Sites, dgs.WithPartitionSeed(datasetSeed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var opts []dgs.DeployOption
	if dm != nil {
		opts = append(opts, dgs.WithRemoteSites(dm.addrs()...))
	}
	sp = tr.begin("dgs.Deploy", root, -1)
	t0 := time.Now()
	dep, err := dgs.Deploy(part, opts...)
	d := &deployment{part: part, dep: dep, deploy: time.Since(t0)}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.Watches; i++ {
		sp = tr.begin("dgs.Watch", root, -1)
		w, err := dep.Watch(context.Background(), in.catalog[i])
		tr.end(sp)
		if err != nil {
			dep.Close()
			return nil, err
		}
		d.watches = append(d.watches, w)
	}
	d.setup = time.Since(start)
	return d, nil
}

// setUpMedian sets the deployment up reps times, keeps the last one and
// reports the median set-up and Deploy times.
func setUpMedian(s spec, in *inputs, dm *daemons, reps int, tr *tracer) (*deployment, samples, samples, error) {
	var setups, deploys samples
	var d *deployment
	for i := 0; i < reps; i++ {
		if d != nil {
			d.dep.Close()
		}
		runtime.GC() // start each set-up from the same heap state
		var err error
		if d, err = setUp(s, in, dm, tr); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, d.setup.Seconds())
		deploys = append(deploys, ms(d.deploy))
	}
	return d, setups, deploys, nil
}

// scrape reads a registry's exposition the way a Prometheus server
// would, through its HTTP handler.
func scrape(regs ...*obs.Registry) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	obs.Handler(regs...).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", rec.Code)
	}
	return promValues(rec.Body.Bytes())
}

// oracle answers "what is Q(G) at this graph version" from the
// benchmark's own apply log, computing each (pattern, graph state)
// answer once with the centralized Simulate.
type oracle struct {
	in       *inputs
	deleted  map[uint64]map[[2]dgs.NodeID]bool // version → edges deleted from g
	graphs   map[string]*dgs.Graph
	expected map[string]truth
	times    samples // Simulate wall times, ms
	tr       *tracer
}

func newOracle(in *inputs, tr *tracer) *oracle {
	return &oracle{
		in:       in,
		tr:       tr,
		deleted:  map[uint64]map[[2]dgs.NodeID]bool{0: {}},
		graphs:   make(map[string]*dgs.Graph),
		expected: make(map[string]truth),
	}
}

// logApply records that the apply which produced version v deleted (or
// re-inserted) the given edges; versions must be logged in order.
func (o *oracle) logApply(v uint64, edges [][2]dgs.NodeID, del bool) error {
	prev, ok := o.deleted[v-1]
	if !ok {
		return fmt.Errorf("apply log: version %d follows no logged version", v)
	}
	cur := make(map[[2]dgs.NodeID]bool, len(prev)+1)
	for k := range prev {
		cur[k] = true
	}
	for _, e := range edges {
		if del {
			cur[e] = true
		} else {
			delete(cur, e)
		}
	}
	o.deleted[v] = cur
	return nil
}

func stateKey(del map[[2]dgs.NodeID]bool) string {
	keys := make([]string, 0, len(del))
	for e := range del {
		keys = append(keys, strconv.Itoa(int(e[0]))+">"+strconv.Itoa(int(e[1])))
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// truth summarizes one answer: the Boolean verdict, |Q(G)|, and a hash
// of the whole relation (zero when only the summary was returned).
type truth struct {
	ok    bool
	pairs int
	fp    uint64
}

func truthOf(q *dgs.Pattern, m *dgs.Match) truth {
	t := truth{ok: m.Ok()}
	if t.ok {
		t.pairs = m.NumPairs()
	}
	t.fp = fingerprint(q, m.MatchesOf, t.ok)
	return t
}

// want returns pattern q's answer at version v.
func (o *oracle) want(q int, v uint64) (truth, error) {
	del, ok := o.deleted[v]
	if !ok {
		return truth{}, fmt.Errorf("oracle: version %d is not in the apply log", v)
	}
	sk := stateKey(del)
	key := strconv.Itoa(q) + "@" + sk
	if t, ok := o.expected[key]; ok {
		return t, nil
	}
	g, ok := o.graphs[sk]
	if !ok {
		var err error
		if g, err = graphWithout(o.in, del); err != nil {
			return truth{}, err
		}
		o.graphs[sk] = g
	}
	sp := o.tr.begin("dgs.Simulate", -1, -1)
	t0 := time.Now()
	m := dgs.Simulate(o.in.catalog[q], g)
	o.times = append(o.times, ms(time.Since(t0)))
	o.tr.end(sp)
	t := truthOf(o.in.catalog[q], m)
	o.expected[key] = t
	return t, nil
}

// fingerprint hashes a match relation node by node in pattern order;
// every empty relation hashes alike.
func fingerprint(q *dgs.Pattern, set func(dgs.QNode) []dgs.NodeID, ok bool) uint64 {
	h := fnv.New64a()
	if !ok {
		return h.Sum64()
	}
	var buf []byte
	for u := 0; u < q.NumNodes(); u++ {
		buf = append(buf[:0], q.NodeName(dgs.QNode(u))...)
		buf = append(buf, 0)
		for _, v := range set(dgs.QNode(u)) {
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ',')
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// answer is one response kept for the oracle check after timing ends;
// full marks one that carried the whole relation, not just its summary.
type answer struct {
	query   int
	version uint64
	got     truth
	full    bool
}

// check compares every kept answer with the oracle and returns the
// number of mismatches.
func (o *oracle) check(answers []answer) (int, error) {
	bad := 0
	for _, a := range answers {
		want, err := o.want(a.query, a.version)
		if err != nil {
			return bad, err
		}
		if a.got.ok != want.ok || a.got.pairs != want.pairs || (a.full && a.got.fp != want.fp) {
			bad++
		}
	}
	return bad, nil
}

// checkWatches compares each standing query's maintained relation with
// Simulate over the deployment's current graph.
func checkWatches(d *deployment) int {
	g := d.part.CurrentGraph()
	bad := 0
	for _, w := range d.watches {
		if !w.Current().Equal(dgs.Simulate(w.Pattern(), g)) {
			bad++
		}
	}
	return bad
}
