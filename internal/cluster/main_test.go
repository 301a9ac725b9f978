package cluster

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"dgs/internal/partition"
	"dgs/internal/wire"
)

// algoFunc is the package's one test algorithm. openSites files the
// caller's per-site handlers in funcTables under a fresh key carried in
// SessionSpec.Config; the factory resolves the key, and each site
// dispatches on ctx.Self() — so closures capturing test state run as
// ordinary spec-opened sessions.
const algoFunc = "test-func"

var (
	funcMu     sync.Mutex
	funcSeq    uint64
	funcTables = map[uint64][]Handler{}
)

func funcFactory(spec SessionSpec, _ *partition.Fragment, _ []int32) (Handler, error) {
	if len(spec.Config) != 8 {
		return nil, fmt.Errorf("%s: config is not a table key", algoFunc)
	}
	funcMu.Lock()
	sites, ok := funcTables[binary.LittleEndian.Uint64(spec.Config)]
	funcMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%s: unknown handler table", algoFunc)
	}
	return HandlerFunc(func(ctx *Ctx, from int, p wire.Payload) {
		sites[ctx.Self()].Recv(ctx, from, p)
	}), nil
}

// openSites opens a session of the given kind whose site i runs
// sites[i]. In-process factories run inside OpenSession, so the table
// entry is dropped as soon as it returns.
func openSites(t testing.TB, c *Cluster, kind SessionKind, sites []Handler, coord Handler) *Session {
	t.Helper()
	if len(sites) != c.NumSites() {
		t.Fatalf("%d handlers for %d sites", len(sites), c.NumSites())
	}
	funcMu.Lock()
	funcSeq++
	key := funcSeq
	funcTables[key] = sites
	funcMu.Unlock()
	defer func() {
		funcMu.Lock()
		delete(funcTables, key)
		funcMu.Unlock()
	}()
	s, err := c.OpenSession(kind, SessionSpec{Algo: algoFunc, Config: binary.LittleEndian.AppendUint64(nil, key)}, coord)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMain registers the test algorithm once per process (so -count=N
// reruns cannot register it twice) and, after a passing run, fails the
// binary if goroutines outlive the tests.
func TestMain(m *testing.M) {
	RegisterAlgorithm(algoFunc, funcFactory)
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
