package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"heron/internal/bench"
	"heron/internal/core"
	"heron/internal/lease"
	"heron/internal/multicast"
	"heron/internal/persist"
	"heron/internal/sim"
	"heron/internal/store"
)

// kv-lease-durable: a register app over 2 partitions x 3 replicas, 24
// closed-loop clients, 50/50 reads and writes. Leases serve reads
// locally; LSM checkpoints make writes durable. A third into the window
// partition 0's ordering leader crashes and comes back after
// kvRecoverAfter through checkpoint recovery.
const (
	kvPartitions   = 2
	kvReplicas     = 3
	kvKeys         = 64 // per partition
	kvClients      = 24
	kvReadPct      = 50
	kvThink        = 20 * sim.Microsecond // mean think time
	kvWarmup       = 2 * sim.Millisecond
	kvWindow       = 15 * sim.Millisecond
	kvRecoverAfter = 2 * sim.Millisecond
	kvOpTimeout    = 10 * sim.Millisecond
	// kvDrain covers the last operations' replies.
	kvDrain = 5 * sim.Millisecond
)

// registerApp is the benchmark's application: payload
// [op u8][oid u64][val u64]; op 0 reads the object, op 1 writes val.
type registerApp struct{}

func (registerApp) ReadSet(req *core.Request) []store.OID {
	if req.Payload[0] == 0 {
		return []store.OID{store.OID(binary.LittleEndian.Uint64(req.Payload[1:9]))}
	}
	return nil
}

func (registerApp) Execute(ctx *core.ExecContext) core.Outcome {
	p := ctx.Req.Payload
	oid := store.OID(binary.LittleEndian.Uint64(p[1:9]))
	if p[0] == 0 {
		return core.Outcome{Response: append([]byte(nil), ctx.Values[oid]...)}
	}
	v := append([]byte(nil), p[9:17]...)
	return core.Outcome{Response: v, Writes: []core.Write{{OID: oid, Val: v}}}
}

var kvParter = core.PartitionerFunc(func(oid store.OID) core.PartitionID {
	return core.PartitionID(uint64(oid) >> 32)
})

func kvOID(part core.PartitionID, key int) store.OID {
	return store.OID(uint64(part)<<32 | uint64(key))
}

func kvEncode(write bool, oid store.OID, val uint64) []byte {
	b := make([]byte, 17)
	if write {
		b[0] = 1
	}
	binary.LittleEndian.PutUint64(b[1:9], uint64(oid))
	binary.LittleEndian.PutUint64(b[9:17], val)
	return b
}

func kvDecode(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func runKV(seed int64, tr *tracing) (*run, error) {
	log := tr.log()
	clock := startSetup(log)
	s := sim.NewScheduler()
	cfg := core.DefaultConfig(multicast.DefaultConfig(bench.Layout(kvPartitions, kvReplicas)))
	cfg.StoreCapacity = kvKeys*store.SlotSize(8) + 1<<12
	d, err := core.NewDeployment(s, cfg, func(core.PartitionID, int) core.Application { return registerApp{} }, kvParter)
	if err != nil {
		return nil, err
	}
	r := &run{}
	r.Deploy = clock.phase("deploy")
	zero := make([]byte, 8)
	err = d.PopulateAll(func(part core.PartitionID, rank int, rep *core.Replica) error {
		for k := 0; k < kvKeys; k++ {
			if err := rep.Store().Register(kvOID(part, k), 8); err != nil {
				return err
			}
			if err := rep.Store().Init(kvOID(part, k), zero); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.Populate = clock.phase("populate")
	o := tr.observer()
	d.Observe(o)
	pl := persist.Attach(d, nil)
	pl.Observe(o)
	d.Start()
	warmupEnd := sim.Time(kvWarmup)
	measureEnd := warmupEnd + sim.Time(kvWindow)
	mgr := lease.Attach(d, lease.Options{Until: measureEnd})
	mgr.Start()
	clock.phase("start")
	r.Setup = clock.done()

	// The fault: crash partition 0's ordering leader a third into the
	// window, recover it kvRecoverAfter later.
	crashAt := warmupEnd + sim.Time(kvWindow/3)
	crashed := -1
	var recoverErr error
	s.At(crashAt, func() {
		for rank, mc := range d.MCProcs[0] {
			if mc.IsLeader() {
				crashed = rank
			}
		}
		if crashed < 0 {
			recoverErr = fmt.Errorf("partition 0 has no ordering leader at %v", crashAt)
			return
		}
		d.Replica(0, crashed).Crash()
		log.virtual("kv.crash", -1, -1, crashAt, crashAt)
	})
	s.At(crashAt+sim.Time(kvRecoverAfter), func() {
		if crashed < 0 {
			return
		}
		recoverErr = d.RecoverReplica(0, crashed)
		log.virtual("kv.recover_replica", -1, -1, s.Now(), s.Now())
	})

	all, reads, writes := &bench.LatencyRecorder{}, &bench.LatencyRecorder{}, &bench.LatencyRecorder{}
	var history []kvOp
	failover := sim.Time(-1) // first completion of a post-crash write on partition 0
	readers := make([]*lease.ReadClient, kvClients)
	for ci := 0; ci < kvClients; ci++ {
		ci := ci
		cl := d.NewClient()
		rc := lease.NewReadClient(cl, mgr)
		readers[ci] = rc
		rng := rand.New(rand.NewSource(seed*7919 + int64(ci)))
		var seq uint64
		s.Spawn(fmt.Sprintf("perfbench-kv%d", ci), func(p *sim.Proc) {
			for p.Now() < measureEnd {
				part := core.PartitionID(rng.Intn(kvPartitions))
				key := rng.Intn(kvKeys)
				oid := kvOID(part, key)
				op := kvOp{client: ci, oid: oid, write: rng.Intn(100) >= kvReadPct}
				op.call = p.Now()
				var ok bool
				if op.write {
					seq++
					op.val = uint64(ci+1)<<32 | seq
					_, ok = cl.SubmitTimeout(p, []core.PartitionID{part}, kvEncode(true, oid, op.val), kvOpTimeout)
					log.virtual("kv.write", ci, -1, op.call, p.Now())
				} else {
					var v []byte
					v, ok = rc.TryLocal(p, part, oid)
					probe := log.virtual("kv.try_local", ci, -1, op.call, p.Now())
					if !ok {
						// The holder declined or timed out: the probe
						// causes an ordered read.
						t := p.Now()
						var resp map[core.PartitionID][]byte
						resp, ok = cl.SubmitTimeout(p, []core.PartitionID{part}, kvEncode(false, oid, 0), kvOpTimeout)
						v = resp[part]
						log.virtual("kv.read_ordered", ci, probe, t, p.Now())
					}
					op.val = kvDecode(v)
				}
				op.ret, op.ok = p.Now(), ok
				history = append(history, op)
				if op.call >= warmupEnd {
					r.Attempted++
					if !ok {
						r.Failed++
					} else {
						r.Completed++
						lat := sim.Duration(op.ret - op.call)
						all.Add(lat)
						if op.write {
							writes.Add(lat)
						} else {
							reads.Add(lat)
						}
					}
				}
				if ok && op.write && part == 0 && op.call >= crashAt && (failover < 0 || op.ret < failover) {
					failover = op.ret
				}
				p.Sleep(sim.Duration(1 + rng.Int63n(2*int64(kvThink))))
			}
		})
	}
	t0 := time.Now()
	if err := s.RunUntil(measureEnd + sim.Time(kvDrain)); err != nil {
		return nil, err
	}
	r.Sim = time.Since(t0)
	r.Events = s.EventCount()

	var local, fallback uint64
	for _, rc := range readers {
		local += rc.Local
		fallback += rc.Fallback
	}
	var recovery sim.Duration
	if crashed >= 0 {
		recovery = d.Replica(0, crashed).RecoveryTime()
	}
	r.Virtual = map[string]float64{
		"throughput_ops_s": bench.Throughput(all.Count(), kvWindow),
		"latency_p50_us":   us(all.Percentile(50)),
		"latency_p99_us":   us(all.Percentile(99)),
		"latency_p999_us":  us(all.Percentile(99.9)),
		"read_p50_us":      us(reads.Percentile(50)),
		"read_p99_us":      us(reads.Percentile(99)),
		"write_p50_us":     us(writes.Percentile(50)),
		"write_p99_us":     us(writes.Percentile(99)),
		"failover_ms":      ms(sim.Duration(failover - crashAt)),
		"recovery_ms":      ms(recovery),
		"failed_frac":      div(r.Failed, r.Attempted),
	}
	r.gateErr(kvGate(d, crashed, recoverErr, failover, history))
	if tr != nil {
		st := pl.Stats()
		r.Layer = coreLayer(d)
		r.Layer["lease.local_read_frac"] = div(local, local+fallback)
		r.Layer["lease.grants"] = float64(mgr.Grants)
		r.Layer["lease.revokes"] = float64(mgr.Revokes)
		r.Layer["lsm.write_amp"] = div(st.WrittenBytes, st.DirtyBytes)
		r.Layer["lsm.compactions_per_kop"] = div(st.Compactions*1000, uint64(r.Completed))
		r.Layer["lsm.cache_hit_frac"] = div(st.CacheHits, st.CacheHits+st.CacheMisses)
		r.Layer["persist.checkpoints"] = float64(st.Checkpoints)
		r.Layer["persist.restore_bytes"] = float64(st.RestoreBytes)
		r.Layer["persist.io_time_ms"] = float64(st.IOTimeNS) / 1e6
	}
	return r, nil
}

// kvGate checks the run: the fault fired and the crashed replica came
// back through a checkpoint, partition 0 accepted writes again, and the
// whole history — crash window included — is linearizable.
func kvGate(d *core.Deployment, crashed int, recoverErr error, failover sim.Time, history []kvOp) error {
	if recoverErr != nil {
		return recoverErr
	}
	rep := d.Replica(0, crashed)
	if rep.Crashed() || rep.Recovering() || rep.CheckpointRecoveries() == 0 {
		return fmt.Errorf("p0/r%d did not recover from its checkpoint (crashed %v, recovering %v, checkpoint recoveries %d)",
			crashed, rep.Crashed(), rep.Recovering(), rep.CheckpointRecoveries())
	}
	if failover < 0 {
		return fmt.Errorf("no write on partition 0 completed after the crash")
	}
	return checkRegisters(history)
}
