package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"heron/internal/obs"
	"heron/internal/sim"
)

// Parallel-kernel comparison: the same fig7-scale open-loop workload
// executed once on a single simulation domain (the classic
// single-threaded kernel) and once with one domain per group under the
// conservative window barrier. Delivered counts must agree; the wall
// clock ratio is the kernel speedup. Wall-clock fields make this result
// machine-dependent by design — it feeds BENCH_pr6.json, not a
// determinism check.

// ParallelLeg is one side of the comparison.
type ParallelLeg struct {
	Domains   int
	WallMS    float64
	Events    uint64
	Submitted int
	Delivered int
}

// ParallelResult is the full comparison.
type ParallelResult struct {
	Scenario string
	Cores    int
	Groups   int
	Replicas int
	Clients  int
	Single   ParallelLeg
	Multi    ParallelLeg
	// Speedup is Single.WallMS / Multi.WallMS.
	Speedup float64
	// DeliveredMatch reports whether both kernels completed the same
	// workload (same submissions generated, same deliveries).
	DeliveredMatch bool
	// GateNote states the speedup gate CI enforces for the detected core
	// count: >= 5x at 8+ cores, >= 1.2x at 2-7, >= 0.5x at 1, always with
	// DeliveredMatch.
	GateNote string
}

// RunParallelCompare measures the parallel kernel against the
// single-domain kernel on a fig7-scale deployment (8 groups x 3 replicas
// by default) driven by the open-loop engine. Zero arguments select the
// defaults. The observer (may be nil) applies to the single-domain leg
// only: its critical-path shards are sized by the caller for one domain,
// and the two legs' requests share multicast ids, so profiling both
// would merge unrelated marks.
func RunParallelCompare(groups, replicas, clients int, window sim.Duration, o *obs.Observer) (*ParallelResult, error) {
	if groups <= 0 {
		groups = 8
	}
	if replicas <= 0 {
		replicas = 3
	}
	if clients <= 0 {
		clients = 100_000
	}
	if window <= 0 {
		window = 40 * sim.Millisecond
	}
	opts := DefaultOpenLoopOptions()
	opts.Groups = groups
	opts.Replicas = replicas
	opts.Clients = clients
	opts.RatePerClient = 4
	opts.Warmup = 5 * sim.Millisecond
	opts.Window = window

	res := &ParallelResult{
		Scenario: fmt.Sprintf("openloop-%dg%dr-%dclients", groups, replicas, clients),
		Cores:    runtime.NumCPU(),
		Groups:   groups,
		Replicas: replicas,
		Clients:  clients,
	}
	leg := func(domains int, lo *obs.Observer) (ParallelLeg, error) {
		o := opts
		o.Domains = domains
		o.Obs = lo
		t0 := time.Now()
		r, err := RunOpenLoop(o)
		if err != nil {
			return ParallelLeg{}, err
		}
		return ParallelLeg{
			Domains:   domains,
			WallMS:    float64(time.Since(t0).Microseconds()) / 1000,
			Events:    r.Events,
			Submitted: r.Submitted,
			Delivered: r.Delivered,
		}, nil
	}
	var err error
	if res.Single, err = leg(1, o); err != nil {
		return nil, err
	}
	if res.Multi, err = leg(groups, nil); err != nil {
		return nil, err
	}
	if res.Multi.WallMS > 0 {
		res.Speedup = res.Single.WallMS / res.Multi.WallMS
	}
	// The two kernels schedule cross-group verbs differently, so virtual
	// timings differ slightly — but the workload is identical (same seeds,
	// same arrival chains) and an uncongested run delivers all of it.
	res.DeliveredMatch = res.Single.Submitted == res.Multi.Submitted &&
		res.Single.Delivered == res.Multi.Delivered
	res.GateNote = speedupGateNote(res.Cores)
	return res, nil
}

// minSpeedup is the smallest Speedup the sim-parallel-smoke CI job
// accepts on a runner with the given core count. With fewer cores than
// domains the domains' threads time-share, so the bar falls with the
// core count; on one core there is no parallelism at all and the gate
// only bounds the window barrier's overhead.
func minSpeedup(cores int) float64 {
	switch {
	case cores >= 8:
		return 5
	case cores >= 2:
		return 1.2
	default:
		return 0.5
	}
}

// speedupGateNote states the gate CI applies to this report on a runner
// with the given core count.
func speedupGateNote(cores int) string {
	return fmt.Sprintf("%d core(s) detected: CI requires speedup >= %.1fx and delivered_match", cores, minSpeedup(cores))
}

// Format renders the comparison.
func (r *ParallelResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parallel simulation kernel: %s on %d core(s)\n", r.Scenario, r.Cores)
	fmt.Fprintf(&b, "%-10s %-10s %-12s %-12s %-12s\n", "domains", "wall_ms", "events", "submitted", "delivered")
	for _, leg := range []ParallelLeg{r.Single, r.Multi} {
		fmt.Fprintf(&b, "%-10d %-10.1f %-12d %-12d %-12d\n",
			leg.Domains, leg.WallMS, leg.Events, leg.Submitted, leg.Delivered)
	}
	fmt.Fprintf(&b, "speedup: %.2fx  delivered_match: %v\n", r.Speedup, r.DeliveredMatch)
	if r.GateNote != "" {
		fmt.Fprintf(&b, "gate: %s\n", r.GateNote)
	}
	return b.String()
}
