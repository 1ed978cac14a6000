package main

import (
	"math"
	"testing"
	"time"
)

// cannedTraces is `go tool pprof -traces` output in the toolchain's
// format, cut down to one stack of each kind the attribution tells
// apart.
const cannedTraces = `File: perfbench
Build ID: 0123456789abcdef
Type: cpu
Time: 2026-01-01 00:00:00 UTC
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   runtime.chanrecv
             runtime.chanrecv1
             heron/internal/sim.(*Proc).doYield (inline)
             heron/internal/sim.(*Proc).Sleep
             heron/internal/rdma.(*QP).PostWrite
             heron/internal/multicast.(*Process).run
             heron/internal/sim.(*Scheduler).SpawnAfter.func1
-----------+-------------------------------------------------------
         op:  submit
      20ms   heron/internal/rdma.(*Mailbox).tailShadow (inline)
             heron/internal/rdma.(*Mailbox).TryRecv
             heron/internal/multicast.(*Process).run
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.futexsleep
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
      10ms   sort.Float64s
             main.median
             main.main
             runtime.main
-----------+-------------------------------------------------------
`

func TestCPUSharesFromCannedTraces(t *testing.T) {
	samples, err := parseTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("parsed %d stacks, want 5", len(samples))
	}
	if samples[1].value != 20*time.Millisecond || samples[1].frames[0] != "heron/internal/rdma.(*Mailbox).tailShadow" {
		t.Fatalf("label line or inline marker misparsed: %+v", samples[1])
	}
	want := map[string]float64{
		"sim":           0.4, // leaf-most heron frame, under runtime frames
		"rdma":          0.2,
		"runtime.gc":    0.1,
		"runtime.sched": 0.2,
		"perfbench":     0.1,
	}
	got := cpuShares(samples)
	if len(got) != len(want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s share %v, want %v", layer, got[layer], w)
		}
	}
}

func TestParseTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := parseTraces("File: perfbench\nType: cpu\n"); err == nil {
		t.Fatal("a profile without samples parsed")
	}
}
