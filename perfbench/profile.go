package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// CPU attribution: the traced repetition's CPU profile is read back with
// the toolchain's own `go tool pprof -traces`, so no profile-format
// dependency enters the module. Each sample is charged to its leaf-most
// heron/internal/<pkg> frame; samples whose stack holds no such frame
// are charged to the benchmark itself ("perfbench"), to the garbage
// collector ("runtime.gc") or to the Go scheduler and everything else
// in the runtime ("runtime.sched").

const heronPrefix = "heron/internal/"

// stackSample is one distinct stack of a profile, leaf first.
type stackSample struct {
	value  time.Duration
	frames []string
}

// pprofTraces runs `go tool pprof -traces` on a CPU profile.
func pprofTraces(profile string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return string(out), nil
}

// parseTraces reads the text `pprof -traces` prints: a header, then one
// block per distinct stack between separator lines. A block's first
// line carries the sample value and the leaf frame, each further line
// one caller; label lines ("key:value") may precede the stack.
func parseTraces(text string) ([]stackSample, error) {
	var (
		out []stackSample
		cur *stackSample
	)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header lines, blank lines and labels
		}
		if cur == nil {
			if len(fields) < 2 {
				continue
			}
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				continue // a header line such as "Type: cpu"
			}
			out = append(out, stackSample{value: v})
			cur = &out[len(out)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pprof -traces output holds no samples")
	}
	return out, nil
}

// layerOf names the layer a stack is charged to.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, heronPrefix) {
			pkg := f[len(heronPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "perfbench"
		}
	}
	for _, f := range frames {
		for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
			if strings.HasPrefix(f, p) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// cpuShares charges every sample to its layer and returns each layer's
// share of the profile's total.
func cpuShares(samples []stackSample) map[string]float64 {
	var total time.Duration
	by := map[string]time.Duration{}
	for _, s := range samples {
		by[layerOf(s.frames)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(by))
	for layer, v := range by {
		out[layer] = float64(v) / float64(total)
	}
	return out
}
