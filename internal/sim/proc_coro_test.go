//go:build go1.23

package sim

import (
	"runtime"
	"testing"
)

// With the coroutine hand-off, a runtime.Goexit in a proc body ends the
// goroutine that called Run, once the proc has been marked done.
func TestGoexitInBodyEndsRunGoroutine(t *testing.T) {
	s := NewScheduler()
	s.Spawn("exits", func(p *Proc) { runtime.Goexit() })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a Goexit in a proc body")
	}
	if n := s.LiveProcs(); n != 0 {
		t.Fatalf("live procs = %d, want 0", n)
	}
}
