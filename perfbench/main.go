// Command perfbench is the repository's benchmark: it runs one workload
// against the real stack — partitioner, Deployment, transport, site
// actors, and for the gateway workload the serve.Server HTTP handler —
// checks every answer against the centralized Simulate oracle, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer ones)
// as the last line of standard output, one JSON object.
//
//	go run . -workload dgpm-random-inproc -seed 1 -seconds 20 -trace 0
//
// run.py builds it from the enclosing checkout and forwards the flags;
// README.md lists the workloads and which layer metric should move
// which end-to-end metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	outDir    string        // where the traced run writes its spans
	setupReps int           // set-ups per run; setup_s is their median
	warm      time.Duration // gateway warm-up before the measured window
	warmOps   int           // cold warm-up queries
	minTail   int           // samples required beyond a tail percentile
}

// maxSeconds caps how far a run may extend its window to collect the
// samples a tail percentile needs.
func (c config) maxSeconds() time.Duration { return 2 * c.seconds }

// tailsReady reports whether the query and apply samples back every
// percentile the run reports.
func (c config) tailsReady(queries, applies int) bool {
	return tailOK(queries, 0.9, c.minTail) && tailOK(applies, 0.9, c.minTail)
}

func (c config) newTracer() *tracer {
	if !c.trace {
		return nil
	}
	return newTracer()
}

func run(workload string, cfg config) (*report, error) {
	s, ok := specs[workload]
	if !ok {
		names := make([]string, 0, len(specs))
		for n := range specs {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, names)
	}
	return runSpec(s, cfg)
}

func runSpec(s spec, cfg config) (*report, error) {
	if s.Gateway {
		return runGateway(s, cfg)
	}
	return runCold(s, cfg)
}

func main() {
	workload := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", "", "directory for the traced run's span file (none when empty)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		outDir:    *outDir,
		setupReps: 11,
		warm:      time.Second,
		warmOps:   4,
		minTail:   10,
	}
	if cfg.trace {
		// The traced run reports per-layer metrics; its latency lines are
		// informational, so it never extends its window for tail samples.
		cfg.minTail = 0
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := run(*workload, cfg)
	if err == nil && rep.err != nil {
		for _, l := range rep.lines {
			fmt.Fprintln(os.Stderr, l)
		}
		err = rep.err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.emit(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct {
		os.Exit(1)
	}
}
