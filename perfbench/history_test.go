package main

import (
	"strings"
	"testing"

	"heron/internal/sim"
)

// serialHistory is a long linearizable register history: 100 writes,
// each followed by a read of the value it wrote, one at a time — longer
// than lincheck's 64-operation bound, so it passes only if the checker
// cuts it into pieces.
func serialHistory() []kvOp {
	var h []kvOp
	t := sim.Time(0)
	for i := 1; i <= 100; i++ {
		h = append(h, kvOp{client: 0, oid: 1, write: true, val: uint64(i), call: t, ret: t + 5, ok: true})
		h = append(h, kvOp{client: 1, oid: 1, val: uint64(i), call: t + 10, ret: t + 15, ok: true})
		t += 20
	}
	return h
}

func TestCheckRegistersLongHistory(t *testing.T) {
	if err := checkRegisters(serialHistory()); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRegistersConcurrentPiece(t *testing.T) {
	// A read overlapping a write may see either value; a later read
	// must see the write.
	h := []kvOp{
		{client: 0, oid: 1, write: true, val: 7, call: 0, ret: 10, ok: true},
		{client: 1, oid: 1, val: 0, call: 2, ret: 4, ok: true},
		{client: 2, oid: 1, val: 7, call: 3, ret: 12, ok: true},
		{client: 1, oid: 1, val: 7, call: 20, ret: 25, ok: true},
	}
	if err := checkRegisters(h); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRegistersStaleRead(t *testing.T) {
	h := serialHistory()
	h[151].val = 75 // the read after write 76 returns the previous value
	err := checkRegisters(h)
	if err == nil || !strings.Contains(err.Error(), "not linearizable") {
		t.Fatalf("stale read accepted: %v", err)
	}
}

func TestCheckRegistersTimedOutWrite(t *testing.T) {
	// A write that timed out may still take effect later.
	h := []kvOp{
		{client: 0, oid: 1, write: true, val: 3, call: 0, ret: 10, ok: false},
		{client: 1, oid: 1, val: 0, call: 20, ret: 25, ok: true},
		{client: 1, oid: 1, val: 3, call: 30, ret: 35, ok: true},
	}
	if err := checkRegisters(h); err != nil {
		t.Fatal(err)
	}
}
