package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// run is one repetition of a workload: the virtual-time outcome (a pure
// function of the seed), the host-time cost of producing it, and the
// verdict of the workload's correctness gates. Untraced repetitions run
// in child processes and come back as JSON.
type run struct {
	// Virtual holds the deterministic virtual-time metrics, by name.
	Virtual   map[string]float64 `json:"virtual"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Completed is the number of simulated operations that finished.
	Completed int    `json:"completed"`
	Events    uint64 `json:"events"`
	// Gate names the correctness gate that failed ("" when all held).
	Gate string `json:"gate,omitempty"`

	// Host time: building and populating the deployment, and running
	// the simulation; the allocations and peak RSS of the repetition.
	Deploy     time.Duration `json:"deploy_ns"`
	Populate   time.Duration `json:"populate_ns"`
	Setup      time.Duration `json:"setup_ns"`
	Sim        time.Duration `json:"sim_ns"`
	Mallocs    uint64        `json:"mallocs"`
	AllocBytes uint64        `json:"alloc_bytes"`
	MaxRSS     float64       `json:"max_rss_mb"`

	// Layer holds per-layer virtual metrics the workload reads itself,
	// filled only when the repetition ran traced.
	Layer map[string]float64 `json:"-"`
}

// gateErr records a correctness gate's verdict on the run.
func (r *run) gateErr(err error) {
	if err != nil {
		r.Gate = err.Error()
	}
}

// subSeed derives the i'th sub-seed of a run's seed. One simulation's
// tail latency depends on its seed more than a regression bound allows,
// so a run measures several sub-seeds and reports medians.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// measurement is one run's repetitions and what they add up to.
type measurement struct {
	// runs holds every repetition; runs[i] for i < samples is sub-seed i,
	// later ones replay sub-seed i % samples.
	runs    []*run
	samples int
	// virtual is each virtual metric's median over the sub-seeds.
	virtual           map[string]float64
	attempted, failed int
}

func (m *measurement) hostMedian(f func(*run) float64) float64 {
	xs := make([]float64, len(m.runs))
	for i, r := range m.runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// virtualMedian is the median over the sub-seeds of a quantity derived
// from virtual time; replays are left out, as they only repeat it.
func (m *measurement) virtualMedian(f func(*run) float64) float64 {
	xs := make([]float64, m.samples)
	for i, r := range m.runs[:m.samples] {
		xs[i] = f(r)
	}
	return median(xs)
}

// measure runs each of the workload's sub-seeds once, then replays them
// in turn until the time budget is spent; replays add host-time samples
// and must reproduce their sub-seed's virtual metrics exactly. Every
// repetition must pass the workload's gates. On a failed check the
// returned error says which, alongside the measurement.
func measure(w workload, seed int64, budget time.Duration) (*measurement, error) {
	start := time.Now()
	m := &measurement{samples: w.samples, virtual: map[string]float64{}}
	for i := 0; i < w.samples || time.Since(start) < budget; i++ {
		r, err := repeat(w, subSeed(seed, i%w.samples))
		if err != nil {
			return nil, err
		}
		m.runs = append(m.runs, r)
	}
	perMetric := map[string][]float64{}
	for _, r := range m.runs[:w.samples] {
		m.attempted += r.Attempted
		m.failed += r.Failed
		for k, v := range r.Virtual {
			perMetric[k] = append(perMetric[k], v)
		}
	}
	for k, vs := range perMetric {
		m.virtual[k] = median(vs)
	}
	for i, r := range m.runs {
		if r.Gate != "" {
			return m, fmt.Errorf("sub-seed %d: correctness gate: %s", subSeed(seed, i%w.samples), r.Gate)
		}
		if d := diffVirtual(m.runs[i%w.samples].Virtual, r.Virtual); d != "" {
			return m, fmt.Errorf("sub-seed %d did not replay: %s", subSeed(seed, i%w.samples), d)
		}
	}
	return m, nil
}

// repetition is the child process's side: run the workload once,
// untraced, and print the run as JSON.
func repetition(w workload, seed int64, stdout, stderr io.Writer) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := w.run(seed, nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	runtime.ReadMemStats(&after)
	r.Mallocs = after.Mallocs - before.Mallocs
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// repeat runs one untraced repetition in a child process. A process per
// repetition gives each one a fresh heap — a finished simulation's
// parked processes are never collected — so its peak RSS is its own.
func repeat(w workload, seed int64) (*run, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--rep", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition of seed %d: %w", seed, err)
	}
	r := &run{}
	if err := json.Unmarshal(stdout.Bytes(), r); err != nil {
		return nil, fmt.Errorf("repetition of seed %d: %w", seed, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// diffVirtual names the first virtual metric on which two repetitions
// disagree ("" when they agree exactly).
func diffVirtual(a, b map[string]float64) string {
	for _, k := range sortedKeys(a) {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], b[k])
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return fmt.Sprintf("%s: missing vs %v", k, b[k])
		}
	}
	return ""
}
