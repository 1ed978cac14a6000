package main

import (
	"fmt"
	"math"
	"sort"

	"heron/internal/lincheck"
	"heron/internal/sim"
	"heron/internal/store"
)

// kvOp is one register operation as a client observed it.
type kvOp struct {
	client int
	oid    store.OID
	write  bool
	// val is the value written, or the value a read returned.
	val       uint64
	call, ret sim.Time
	ok        bool // false: the operation timed out
}

// checkRegisters checks a register history for linearizability with
// lincheck.RegisterModel. Linearizability is local, so each register is
// checked alone. lincheck bounds a history at 64 operations, so each
// register's history is cut at isolated operations — ones that overlap
// no other operation on the register. Everything before an isolated
// operation must be linearized before it and everything after it
// later, so the register's value right after it is known (the value it
// wrote or read) and seeds the next piece's initial state. The pieces
// are then checked one by one, which is exact, not an approximation.
func checkRegisters(history []kvOp) error {
	byKey := map[store.OID][]kvOp{}
	for _, op := range history {
		if !op.ok {
			if !op.write {
				continue // a read that got no answer observed nothing
			}
			// A write that timed out may take effect at any later time.
			op.ret = sim.Time(math.MaxInt64)
		}
		byKey[op.oid] = append(byKey[op.oid], op)
	}
	keys := make([]store.OID, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if err := checkRegister(byKey[k]); err != nil {
			return fmt.Errorf("register %#x: %w", uint64(k), err)
		}
	}
	return nil
}

// checkRegister checks one register's operations, initially zero.
func checkRegister(ops []kvOp) error {
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].call != ops[j].call {
			return ops[i].call < ops[j].call
		}
		return ops[i].ret < ops[j].ret
	})
	var state uint64
	start := 0
	maxRet := sim.Time(math.MinInt64) // latest return among ops[start:i]
	for i, op := range ops {
		isolated := op.call > maxRet && (i+1 == len(ops) || op.ret < ops[i+1].call)
		if op.ret > maxRet {
			maxRet = op.ret
		}
		if !isolated {
			continue
		}
		if err := checkPiece(state, ops[start:i+1]); err != nil {
			return err
		}
		state, start, maxRet = op.val, i+1, sim.Time(math.MinInt64)
	}
	if start < len(ops) {
		return checkPiece(state, ops[start:])
	}
	return nil
}

// checkPiece runs lincheck on one piece of a register's history,
// starting from a known value.
func checkPiece(initial uint64, ops []kvOp) error {
	m := lincheck.RegisterModel()
	m.Init = func() any { return map[string]int64{"r": int64(initial)} }
	h := make([]lincheck.Operation, len(ops))
	for i, op := range ops {
		h[i] = lincheck.Operation{ClientID: op.client, Call: int64(op.call), Return: int64(op.ret)}
		if op.write {
			h[i].Input = lincheck.RegisterOp{Kind: "write", Key: "r", Arg: int64(op.val)}
		} else {
			h[i].Input = lincheck.RegisterOp{Kind: "read", Key: "r"}
			h[i].Output = int64(op.val)
		}
	}
	ok, err := lincheck.Check(m, h)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("not linearizable: %d operations from virtual time %d", len(ops), ops[0].call)
	}
	return nil
}
