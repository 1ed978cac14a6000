// Command perfbench is the repository's benchmark: three seeded
// workloads over the simulated Heron deployment, each checked for
// correctness, reported end to end (untraced) or layer by layer
// (traced). See README.md for the workloads, the metrics and how to run
// it.
//
//	go run . --workload tpcc-4wh --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"heron/internal/obs"
)

// DefaultSeed is the seed used while the benchmark was written;
// HeldOutSeed was never used for tuning and verifies claims.
const (
	DefaultSeed int64 = 1
	HeldOutSeed int64 = 7
)

// tracing carries the traced repetition's instruments; a nil *tracing
// leaves every instrument on its disabled path.
type tracing struct {
	obs   *obs.Observer
	spans *spanLog
}

func (t *tracing) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return t.obs
}

func (t *tracing) log() *spanLog {
	if t == nil {
		return nil
	}
	return t.spans
}

// workload is one benchmark workload.
type workload struct {
	name string
	// samples is how many sub-seeds one run measures (see measure).
	samples int
	run     func(seed int64, tr *tracing) (*run, error)
	// extra computes traced-only virtual metrics that need simulations
	// of their own (nil when the workload has none).
	extra func(seed int64) (map[string]float64, error)
}

var workloads = []workload{
	{name: "tpcc-4wh", samples: 5, run: runTPCC},
	{name: "order-open", samples: 7, run: runOrderOpen, extra: orderOpenMaxRate},
	{name: "kv-lease-durable", samples: 5, run: runKV},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order; virtual ones come from the simulation, the
// others from the host.
var endToEnd = []struct {
	name, unit string
	virtual    bool
}{
	{"throughput_ops_s", "1/s", true},
	{"latency_p50_us", "us", true},
	{"latency_p99_us", "us", true},
	{"host_ops_per_s", "1/s", false},
	{"setup_s", "s", false},
	{"max_rss_mb", "MB", false},
}

// output is the benchmark's last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "tpcc-4wh", "workload: tpcc-4wh, order-open or kv-lease-durable")
	seed := fs.Int64("seed", DefaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "host seconds to measure for; every sub-seed runs at least once")
	trace := fs.Int("trace", 0, "1 adds the traced repetition and reports per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's artifacts")
	rep := fs.Bool("rep", false, "run one untraced repetition of --seed and print it as JSON (the parent process's child mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	// The simulation runs on one OS thread; a second processor serves
	// the garbage collector, as on the 2-core machine the figures come
	// from.
	runtime.GOMAXPROCS(2)
	if *rep {
		return repetition(w, *seed, stdout, stderr)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		out *output
		err error
	)
	if *trace == 1 {
		out, err = traced(w, *seed, budget, *outDir, stdout, stderr)
	} else {
		out, err = untraced(w, *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		if out == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// untraced reports the end-to-end metrics.
func untraced(w workload, seed int64, budget time.Duration, stdout io.Writer) (*output, error) {
	ms, err := measure(w, seed, budget)
	if ms == nil {
		return nil, err
	}
	m := map[string]metricValue{
		"host_ops_per_s": {ms.hostMedian(func(r *run) float64 { return float64(r.Completed) / r.Sim.Seconds() }), "1/s"},
		"setup_s":        {ms.hostMedian(func(r *run) float64 { return r.Setup.Seconds() }), "s"},
		"max_rss_mb":     {ms.hostMedian(func(r *run) float64 { return r.MaxRSS }), "MB"},
	}
	for _, e := range endToEnd {
		if e.virtual {
			m[e.name] = metricValue{ms.virtual[e.name], e.unit}
		}
	}
	printReport(stdout, w, seed, ms, m)
	out := &output{Correct: err == nil, Attempted: ms.attempted, Failed: ms.failed, Metrics: m}
	return out, err
}

// printReport writes the human-readable report: every virtual metric of
// the workload, prefixed by the workload's name, then the host metrics.
func printReport(wr io.Writer, w workload, seed int64, ms *measurement, host map[string]metricValue) {
	fmt.Fprintf(wr, "perfbench %s seed %d: %d sub-seeds, %d repetitions, %d ops attempted, %d failed\n",
		w.name, seed, w.samples, len(ms.runs), ms.attempted, ms.failed)
	for _, k := range sortedKeys(ms.virtual) {
		fmt.Fprintf(wr, "  %-44s %16.4f %s\n", w.name+"."+k, ms.virtual[k], unitOf(k))
	}
	for _, k := range sortedKeys(host) {
		if _, virtual := ms.virtual[k]; !virtual {
			fmt.Fprintf(wr, "  %-44s %16.4f %s\n", w.name+"."+k, host[k].Value, host[k].Unit)
		}
	}
}

// unitOf derives a virtual metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ops_s"):
		return "1/s"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"):
		return "1"
	}
	return "count"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
