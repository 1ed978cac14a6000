package main

import (
	"fmt"
	"time"

	"heron/internal/bench"
	"heron/internal/multicast"
	"heron/internal/rdma"
	"heron/internal/sim"
)

// order-open: atomic multicast alone under an open loop — 4 groups x 3
// replicas, 100k modeled clients at a fixed 600k msg/s (about 70% of
// the measured knee), Poisson arrivals, 10% two-group messages, the
// update mix. Latency is timed from each message's due time.
const (
	orderRate = 600_000 // msgs/s offered
	// orderMaxP99 is the latency limit max_rate_ops_s is judged by.
	orderMaxP99 = 50 * sim.Microsecond
	// orderRateStep is the resolution of the max_rate_ops_s sweep, and
	// orderRateCap its ceiling (well past the knee).
	orderRateStep = 50_000
	orderRateCap  = 2_000_000
)

func orderOptions(seed int64, rate float64) bench.OpenLoopOptions {
	o := bench.DefaultOpenLoopOptions()
	o.Seed = seed
	o.Domains = 1
	o.RatePerClient = rate / float64(o.Clients)
	o.Mix = "update"
	return o
}

func runOrderOpen(seed int64, tr *tracing) (*run, error) {
	opts := orderOptions(seed, orderRate)
	opts.Obs = tr.observer()
	// RunOpenLoop builds its own cluster; set-up is timed on an identical
	// cluster built alone.
	clock := startSetup(tr.log())
	if _, err := multicast.NewDomainCluster(opts.Groups, opts.Replicas, opts.Domains, opts.PumpsPerGroup, rdma.DefaultConfig()); err != nil {
		return nil, err
	}
	r := &run{}
	r.Deploy = clock.phase("deploy")
	r.Setup = clock.done()

	t0 := time.Now()
	res, err := bench.RunOpenLoop(opts)
	if err != nil {
		return nil, err
	}
	r.Sim = time.Since(t0)
	tr.log().host("order.run_open_loop", -1, t0, time.Now())
	r.Events = res.Events
	r.Attempted = res.Submitted
	r.Completed = res.Delivered
	r.Failed = res.Submitted - res.Delivered
	r.Virtual = map[string]float64{
		"throughput_ops_s": res.ThroughputMsgS,
		"latency_p50_us":   us(sim.Duration(res.P50NS)),
		"latency_p99_us":   us(sim.Duration(res.P99NS)),
		"latency_p999_us":  us(sim.Duration(res.P999NS)),
		"max_backlog":      float64(res.MaxBacklog),
		"failed_frac":      div(r.Failed, r.Attempted),
	}
	r.gateErr(orderGate(res))
	return r, nil
}

// orderGate checks that every message submitted in the window was
// delivered at its home group and no arrival was left queued at the
// horizon.
func orderGate(res *bench.OpenLoopResult) error {
	if res.Submitted == 0 || res.Delivered != res.Submitted || res.Backlogged != 0 {
		return fmt.Errorf("submitted %d, delivered %d, backlog %d at the horizon",
			res.Submitted, res.Delivered, res.Backlogged)
	}
	return nil
}

// orderOpenMaxRate finds max_rate_ops_s: the highest offered rate, on an
// orderRateStep grid upward from the workload's own rate, whose p99
// stays within orderMaxP99 with every message delivered and no backlog
// left at the horizon.
func orderOpenMaxRate(seed int64) (map[string]float64, error) {
	best := 0.0
	for rate := float64(orderRate); rate <= orderRateCap; rate += orderRateStep {
		res, err := bench.RunOpenLoop(orderOptions(seed, rate))
		if err != nil {
			return nil, err
		}
		if orderGate(res) != nil || sim.Duration(res.P99NS) > orderMaxP99 {
			break
		}
		best = rate
	}
	return map[string]float64{"max_rate_ops_s": best}, nil
}
