package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"heron/internal/obs"
)

// traced measures the per-layer metrics. It makes the untraced
// repetitions first (the baseline the tracing overhead and the
// invariance check compare against), then one repetition with the
// observer (Metrics + CritPath), the benchmark's spans and a CPU
// profile attached, and finally writes every artifact out.
func traced(w workload, seed int64, budget time.Duration, outDir string, stdout, stderr io.Writer) (*output, error) {
	ms, err := measure(w, seed, budget)
	if ms == nil {
		return nil, err
	}
	out := &output{Correct: err == nil, Attempted: ms.attempted, Failed: ms.failed, Metrics: map[string]metricValue{}}
	if err != nil {
		return out, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))

	// The traced repetition replays sub-seed 0 in this process.
	seed0 := subSeed(seed, 0)
	var base []*run // untraced repetitions of sub-seed 0
	for i, r := range ms.runs {
		if i%w.samples == 0 {
			base = append(base, r)
		}
	}
	tr := &tracing{
		obs:   obs.NewFull(nil, obs.NewMetrics(), obs.NewCritPath(1), nil, nil),
		spans: newSpanLog(),
	}
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	r, err := w.run(seed0, tr)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	cp := tr.obs.CritPath().Profile(0)
	snap := tr.obs.Metrics().Snapshot(0)
	// Tracing must not perturb the modeled system: the traced run's
	// virtual metrics replay the untraced run's exactly, and the
	// attribution accounts for every nanosecond of end-to-end latency.
	var gate error
	switch {
	case r.Gate != "":
		gate = fmt.Errorf("traced repetition: correctness gate: %s", r.Gate)
	case diffVirtual(base[0].Virtual, r.Virtual) != "":
		gate = fmt.Errorf("tracing changed a virtual metric: %s", diffVirtual(base[0].Virtual, r.Virtual))
	case cp.Attributed == 0 || cp.SegmentSumNS != cp.TotalE2ENS:
		gate = fmt.Errorf("critical path: %d requests attributed, segment sum %d ns vs end-to-end %d ns",
			cp.Attributed, cp.SegmentSumNS, cp.TotalE2ENS)
	}
	if gate != nil {
		out.Correct = false
		return out, gate
	}

	text, err := pprofTraces(prof.Name())
	if err != nil {
		return nil, err
	}
	samples, err := parseTraces(text)
	if err != nil {
		return nil, err
	}
	cpu := cpuShares(samples)

	layer := observedLayers(snap, cp, r.Completed)
	for k, v := range r.Layer {
		layer[k] = v
	}
	for cat, name := range cpuMetric {
		layer[name] = cpu[cat]
	}
	layer["sim.events_per_op"] = ms.virtualMedian(func(r *run) float64 { return div(float64(r.Events), float64(r.Completed)) })
	layer["sim.host_ns_per_event"] = ms.hostMedian(func(r *run) float64 { return float64(r.Sim.Nanoseconds()) / float64(r.Events) })
	layer["runtime.allocs_per_op"] = ms.hostMedian(func(r *run) float64 { return div(float64(r.Mallocs), float64(r.Completed)) })
	layer["runtime.alloc_bytes_per_op"] = ms.hostMedian(func(r *run) float64 { return div(float64(r.AllocBytes), float64(r.Completed)) })
	layer["setup.deploy_s"] = ms.hostMedian(func(r *run) float64 { return r.Deploy.Seconds() })
	layer["setup.populate_s"] = ms.hostMedian(func(r *run) float64 { return r.Populate.Seconds() })
	untracedS := make([]float64, len(base))
	for i, b := range base {
		untracedS[i] = (b.Setup + b.Sim).Seconds()
	}
	layer["trace.overhead_frac"] = (r.Setup+r.Sim).Seconds()/median(untracedS) - 1
	for k, v := range ms.virtual {
		layer["e2e."+k] = v
	}
	if w.extra != nil {
		extra, err := w.extra(seed0)
		if err != nil {
			return nil, err
		}
		for k, v := range extra {
			layer["e2e."+k] = v
		}
	}

	m := make(map[string]metricValue, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metricValue{layer[l.name], l.unit}
	}
	artifact := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		PerLayer map[string]float64 `json:"per_layer"`
		CPU      map[string]float64 `json:"cpu_share_by_layer"`
		CritPath *obs.CPProfile     `json:"critpath"`
		Metrics  *obs.Snapshot      `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{w.name, seed, layer, cpu, cp, snap, tr.spans.spans}
	if err := writeJSON(stem+".trace.json", artifact); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: traced artifacts in %s.{trace.json,cpu.pprof}\n", stem)
	printLayers(stdout, w, seed, m)
	out.Metrics = m
	return out, nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers writes the per-layer table with what each metric should
// move.
func printLayers(wr io.Writer, w workload, seed int64, m map[string]metricValue) {
	fmt.Fprintf(wr, "perfbench %s seed %d: per-layer metrics (traced)\n", w.name, seed)
	fmt.Fprintf(wr, "  %-32s %16s %-6s  %-44s %s\n", "metric", "value", "unit", "should move", "on")
	for _, l := range perLayer {
		fmt.Fprintf(wr, "  %-32s %16.4f %-6s  %-44s %s\n", l.name, m[l.name].Value, l.unit, l.moves, l.on)
	}
}
