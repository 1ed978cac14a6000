package main

import (
	"fmt"
	"time"

	"heron/internal/bench"
	"heron/internal/core"
	"heron/internal/multicast"
	"heron/internal/sim"
	"heron/internal/store"
	"heron/internal/tpcc"
)

// tpcc-4wh: Heron TPCC as in the paper's Fig. 4 4WH point — 4
// warehouses (one per partition) x 3 replicas, 6 closed-loop clients
// per partition, the standard mix (about 11% multi-partition).
const (
	tpccWarehouses = 4
	tpccClients    = 6 // per partition
	tpccWarmup     = 5 * sim.Millisecond
	tpccWindow     = 20 * sim.Millisecond
	// tpccDrain lets in-flight transactions finish after the window so
	// every replica's store is quiescent when the consistency gate runs.
	tpccDrain = 2 * sim.Millisecond
)

func runTPCC(seed int64, tr *tracing) (*run, error) {
	log := tr.log()
	clock := startSetup(log)
	opt := bench.DefaultOptions(tpccWarehouses)
	opt.Seed = seed
	s := sim.NewScheduler()
	// The composition bench.BuildHeron performs, phase by phase, so
	// deployment and population are timed apart.
	ds := tpcc.NewDataset(seed, opt.Warehouses, opt.Scale)
	cfg := core.DefaultConfig(multicast.DefaultConfig(bench.Layout(opt.Warehouses, opt.Replicas)))
	cfg.StoreCapacity = opt.Scale.Items*store.SlotSize(tpcc.StockMaxBytes) +
		opt.Scale.DistrictsPerWH*opt.Scale.CustomersPerDistrict*store.SlotSize(tpcc.CustomerMaxBytes) +
		1<<16
	d, err := core.NewDeployment(s, cfg, tpcc.NewAppFactory(ds, tpcc.DefaultCostModel()), tpcc.Partitioner)
	if err != nil {
		return nil, err
	}
	r := &run{}
	r.Deploy = clock.phase("deploy")
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		return rep.App().(*tpcc.App).Populate(rep.Store())
	})
	if err != nil {
		return nil, err
	}
	r.Populate = clock.phase("populate")
	d.Observe(tr.observer())
	d.Start()
	clock.phase("start")
	r.Setup = clock.done()

	warmupEnd := sim.Time(tpccWarmup)
	measureEnd := warmupEnd + sim.Time(tpccWindow)
	all, multi := &bench.LatencyRecorder{}, &bench.LatencyRecorder{}
	readOnly, update := &bench.LatencyRecorder{}, &bench.LatencyRecorder{}
	var submitErr error
	nClients := tpccClients * opt.Warehouses
	for ci := 0; ci < nClients; ci++ {
		ci := ci
		cl := d.NewClient()
		w := tpcc.NewWorkload(seed+int64(ci)*7919, opt.Warehouses, opt.Scale)
		w.HomeWID = ci%opt.Warehouses + 1
		s.Spawn(fmt.Sprintf("perfbench-tpcc%d", ci), func(p *sim.Proc) {
			for p.Now() < measureEnd {
				txn := w.Next()
				parts := txn.Partitions()
				t0 := p.Now()
				counted := t0 >= warmupEnd
				if counted {
					r.Attempted++
				}
				_, err := cl.Submit(p, parts, txn.Encode())
				t1 := p.Now()
				log.virtual("tpcc.submit", ci, -1, t0, t1)
				if err != nil {
					submitErr = err
					return
				}
				if !counted {
					continue
				}
				r.Completed++
				lat := sim.Duration(t1 - t0)
				all.Add(lat)
				if len(parts) > 1 {
					multi.Add(lat)
				}
				if txn.Kind == tpcc.TxnOrderStatus || txn.Kind == tpcc.TxnStockLevel {
					readOnly.Add(lat)
				} else {
					update.Add(lat)
				}
			}
		})
	}
	t0 := time.Now()
	if err := s.RunUntil(measureEnd + sim.Time(tpccDrain)); err != nil {
		return nil, err
	}
	r.Sim = time.Since(t0)
	r.Events = s.EventCount()
	// A transaction that errored or never completed counts as failed.
	r.Failed = r.Attempted - r.Completed

	r.Virtual = map[string]float64{
		"throughput_ops_s": bench.Throughput(all.Count(), tpccWindow),
		"latency_p50_us":   us(all.Percentile(50)),
		"latency_p99_us":   us(all.Percentile(99)),
		"multi_p50_us":     us(multi.Percentile(50)),
		"read_p50_us":      us(readOnly.Percentile(50)),
		"write_p50_us":     us(update.Percentile(50)),
		"failed_frac":      div(r.Failed, r.Attempted),
	}
	r.gateErr(tpccGate(d, submitErr, all.Count(), multi.Count()))
	if tr != nil {
		r.Layer = coreLayer(d)
	}
	return r, nil
}

// tpccGate checks the run: no transaction failed, both single- and
// multi-partition transactions completed, and every replica's store
// satisfies the TPC-C consistency conditions.
func tpccGate(d *core.Deployment, submitErr error, completed, multi int) error {
	if submitErr != nil {
		return fmt.Errorf("submit failed: %w", submitErr)
	}
	if completed == 0 || multi == 0 {
		return fmt.Errorf("%d transactions completed, %d multi-partition", completed, multi)
	}
	for g := 0; g < d.Partitions(); g++ {
		for rank := range d.Replicas[g] {
			rep := d.Replica(core.PartitionID(g), rank)
			if err := rep.App().(*tpcc.App).CheckConsistency(rep.Store()); err != nil {
				return fmt.Errorf("p%d/r%d: %w", g, rank, err)
			}
		}
	}
	return nil
}

// coreLayer reads the deployment-level counters the observer does not
// carry.
func coreLayer(d *core.Deployment) map[string]float64 {
	var st uint64
	for g := range d.Replicas {
		for _, rep := range d.Replicas[g] {
			st += rep.StateTransfers()
		}
	}
	return map[string]float64{"core.state_transfers": float64(st)}
}

// us converts a virtual duration to microseconds.
func us(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

// ms converts a virtual duration to milliseconds.
func ms(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }

// div is a / b, or 0 when nothing was counted (b == 0).
func div[T int | uint64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
