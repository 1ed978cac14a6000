package main

import (
	"strings"

	"heron/internal/obs"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workload it shows on.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. Values
// are per completed operation unless the unit says otherwise; a layer a
// workload bypasses reports 0.
var perLayer = []layerMetric{
	{"sim.events_per_op", "count", "lower", "host_ops_per_s", "order-open, tpcc-4wh"},
	{"sim.host_ns_per_event", "ns", "lower", "host_ops_per_s", "order-open, tpcc-4wh"},
	{"sim.cpu_share", "1", "lower", "host_ops_per_s", "order-open, tpcc-4wh"},
	{"runtime.sched_cpu_share", "1", "lower", "host_ops_per_s", "all"},
	{"runtime.gc_cpu_share", "1", "lower", "host_ops_per_s, max_rss_mb", "all"},
	{"runtime.allocs_per_op", "count", "lower", "host_ops_per_s, max_rss_mb", "all"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "host_ops_per_s, max_rss_mb", "all"},
	{"rdma.read_ops_per_op", "count", "lower", "e2e.multi_p50_us", "tpcc-4wh"},
	{"rdma.read_bytes_per_op", "B", "lower", "e2e.multi_p50_us", "tpcc-4wh"},
	{"rdma.read_post_us", "us", "lower", "e2e.multi_p50_us", "tpcc-4wh"},
	{"rdma.nic_wait_us", "us", "lower", "e2e.multi_p50_us", "tpcc-4wh"},
	{"rdma.write_ops_per_op", "count", "lower", "latency_p50_us, host_ops_per_s", "order-open"},
	{"rdma.write_bytes_per_op", "B", "lower", "latency_p50_us, host_ops_per_s", "order-open"},
	{"rdma.send_ops_per_op", "count", "lower", "latency_p50_us, host_ops_per_s", "order-open"},
	{"rdma.cas_ops_per_op", "count", "lower", "latency_p50_us, host_ops_per_s", "order-open"},
	{"rdma.cpu_share", "1", "lower", "host_ops_per_s", "order-open"},
	{"multicast.ordering_us", "us", "lower", "latency_p50_us, latency_p99_us, e2e.max_rate_ops_s", "order-open, tpcc-4wh"},
	{"multicast.order_latency_p99_us", "us", "lower", "latency_p99_us, e2e.max_rate_ops_s", "order-open, tpcc-4wh"},
	{"multicast.cpu_share", "1", "lower", "host_ops_per_s", "order-open"},
	{"multicast.view_changes", "count", "lower", "e2e.failover_ms", "kv-lease-durable"},
	{"bench.pump_wait_us", "us", "lower", "latency_p99_us", "order-open"},
	{"core.coord2_wait_us", "us", "lower", "e2e.multi_p50_us, latency_p50_us", "tpcc-4wh"},
	{"core.coord4_wait_us", "us", "lower", "e2e.multi_p50_us, latency_p50_us", "tpcc-4wh"},
	{"core.addr_resolve_us", "us", "lower", "e2e.multi_p50_us, e2e.write_p50_us", "tpcc-4wh, kv-lease-durable"},
	{"core.version_select_us", "us", "lower", "latency_p50_us", "tpcc-4wh"},
	{"core.local_read_us", "us", "lower", "latency_p50_us", "tpcc-4wh"},
	{"core.write_apply_us", "us", "lower", "latency_p50_us", "tpcc-4wh"},
	{"core.reply_us", "us", "lower", "latency_p50_us", "tpcc-4wh"},
	{"core.other_us", "us", "lower", "latency_p50_us", "tpcc-4wh"},
	{"core.multi_partition_frac", "1", "lower", "latency_p99_us", "tpcc-4wh"},
	{"core.state_transfers", "count", "lower", "e2e.recovery_ms", "kv-lease-durable"},
	{"core.cpu_share", "1", "lower", "host_ops_per_s", "tpcc-4wh"},
	{"store.cpu_share", "1", "lower", "host_ops_per_s", "tpcc-4wh"},
	{"tpcc.cpu_share", "1", "lower", "host_ops_per_s", "tpcc-4wh"},
	{"wire.cpu_share", "1", "lower", "host_ops_per_s", "tpcc-4wh"},
	{"tpcc.app_execute_us", "us", "lower", "latency_p50_us", "tpcc-4wh"},
	{"setup.deploy_s", "s", "lower", "setup_s", "tpcc-4wh"},
	{"setup.populate_s", "s", "lower", "setup_s", "tpcc-4wh"},
	{"lease.local_read_frac", "1", "higher", "e2e.read_p50_us", "kv-lease-durable"},
	{"lease.lease_wait_us", "us", "lower", "e2e.write_p99_us", "kv-lease-durable"},
	{"lease.grants", "count", "lower", "e2e.read_p50_us", "kv-lease-durable"},
	{"lease.revokes", "count", "lower", "e2e.failover_ms", "kv-lease-durable"},
	{"lease.cpu_share", "1", "lower", "host_ops_per_s", "kv-lease-durable"},
	{"lsm.write_amp", "1", "lower", "host_ops_per_s, e2e.recovery_ms", "kv-lease-durable"},
	{"lsm.compactions_per_kop", "count", "lower", "host_ops_per_s", "kv-lease-durable"},
	{"lsm.cache_hit_frac", "1", "higher", "e2e.recovery_ms", "kv-lease-durable"},
	{"lsm.cpu_share", "1", "lower", "host_ops_per_s", "kv-lease-durable"},
	{"persist.checkpoints", "count", "lower", "host_ops_per_s", "kv-lease-durable"},
	{"persist.restore_bytes", "B", "lower", "e2e.recovery_ms", "kv-lease-durable"},
	{"persist.io_time_ms", "ms", "lower", "e2e.recovery_ms, host_ops_per_s", "kv-lease-durable"},
	{"persist.durable_gate_us", "us", "lower", "e2e.write_p50_us", "kv-lease-durable"},
	{"persist.cpu_share", "1", "lower", "host_ops_per_s", "kv-lease-durable"},
	{"obs.cpu_share", "1", "lower", "trace.overhead_frac", "all"},
	{"trace.overhead_frac", "1", "lower", "(none; reported)", "all"},
	// Virtual end-to-end metrics only some workloads define; every
	// workload reports the ones it has under the same names.
	{"e2e.latency_p999_us", "us", "lower", "(end-to-end)", "order-open, kv-lease-durable"},
	{"e2e.multi_p50_us", "us", "lower", "(end-to-end)", "tpcc-4wh"},
	{"e2e.read_p50_us", "us", "lower", "(end-to-end)", "kv-lease-durable, tpcc-4wh"},
	{"e2e.read_p99_us", "us", "lower", "(end-to-end)", "kv-lease-durable"},
	{"e2e.write_p50_us", "us", "lower", "(end-to-end)", "kv-lease-durable, tpcc-4wh"},
	{"e2e.write_p99_us", "us", "lower", "(end-to-end)", "kv-lease-durable"},
	{"e2e.failover_ms", "ms", "lower", "(end-to-end)", "kv-lease-durable"},
	{"e2e.recovery_ms", "ms", "lower", "(end-to-end)", "kv-lease-durable"},
	{"e2e.max_rate_ops_s", "1/s", "higher", "(end-to-end)", "order-open"},
	{"e2e.failed_frac", "1", "lower", "(end-to-end)", "all"},
}

// cpuMetric maps the CPU-profile categories (see layerOf) to per-layer
// metric names.
var cpuMetric = map[string]string{
	"sim": "sim.cpu_share", "rdma": "rdma.cpu_share", "multicast": "multicast.cpu_share",
	"core": "core.cpu_share", "store": "store.cpu_share", "tpcc": "tpcc.cpu_share",
	"wire": "wire.cpu_share", "lease": "lease.cpu_share", "lsm": "lsm.cpu_share",
	"persist": "persist.cpu_share", "obs": "obs.cpu_share",
	"runtime.sched": "runtime.sched_cpu_share", "runtime.gc": "runtime.gc_cpu_share",
}

// critPathLayer maps CritPath segments to per-layer metric names.
var critPathLayer = map[string]string{
	"read_post":      "rdma.read_post_us",
	"nic_wait":       "rdma.nic_wait_us",
	"ordering":       "multicast.ordering_us",
	"pump_wait":      "bench.pump_wait_us",
	"coord2_wait":    "core.coord2_wait_us",
	"coord4_wait":    "core.coord4_wait_us",
	"addr_resolve":   "core.addr_resolve_us",
	"version_select": "core.version_select_us",
	"local_read":     "core.local_read_us",
	"write_apply":    "core.write_apply_us",
	"reply":          "core.reply_us",
	"other":          "core.other_us",
	"app_execute":    "tpcc.app_execute_us",
	"lease_wait":     "lease.lease_wait_us",
	"durable_gate":   "persist.durable_gate_us",
}

// rdmaCounters maps per-queue-pair verb counters (rdma/qp/<pair>/<verb>)
// to per-layer metric names; each is summed over all pairs.
var rdmaCounters = map[string]string{
	"read_ops":    "rdma.read_ops_per_op",
	"read_bytes":  "rdma.read_bytes_per_op",
	"write_ops":   "rdma.write_ops_per_op",
	"write_bytes": "rdma.write_bytes_per_op",
	"send_ops":    "rdma.send_ops_per_op",
	"cas_ops":     "rdma.cas_ops_per_op",
}

// observedLayers derives the per-layer metrics the observer recorded
// during the traced repetition: verb counts per operation, the CritPath
// split per attributed request, and the ordering layer's own counters.
func observedLayers(snap *obs.Snapshot, cp *obs.CPProfile, ops int) map[string]float64 {
	out := map[string]float64{}
	var executed, multi, viewChanges uint64
	for _, c := range snap.Counters {
		switch {
		case strings.HasPrefix(c.Name, "rdma/qp/"):
			verb := c.Name[strings.LastIndexByte(c.Name, '/')+1:]
			if name, ok := rdmaCounters[verb]; ok {
				out[name] += float64(c.Value)
			}
		case strings.HasPrefix(c.Name, "mc/") && strings.HasSuffix(c.Name, "/view_changes"):
			viewChanges += c.Value
		case c.Name == "core/executed":
			executed = c.Value
		case c.Name == "core/multi_partition":
			multi = c.Value
		}
	}
	for _, name := range rdmaCounters {
		out[name] = div(out[name], float64(ops))
	}
	out["multicast.view_changes"] = float64(viewChanges)
	out["core.multi_partition_frac"] = div(multi, executed)
	for _, h := range snap.Histograms {
		if strings.HasPrefix(h.Name, "mc/") && strings.HasSuffix(h.Name, "/order_latency") {
			// The worst group's p99.
			if v := us(h.P99); v > out["multicast.order_latency_p99_us"] {
				out["multicast.order_latency_p99_us"] = v
			}
		}
	}
	if cp.Attributed > 0 {
		for _, seg := range cp.Segments {
			if name, ok := critPathLayer[seg.Name]; ok {
				out[name] = float64(seg.TotalNS) / float64(cp.Attributed) / 1e3
			}
		}
	}
	return out
}
