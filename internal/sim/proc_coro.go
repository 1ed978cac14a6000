//go:build go1.23

package sim

import "iter"

// handoff runs a proc body as a runtime coroutine. iter.Pull switches
// goroutines directly, without parking on a channel or passing through
// the Go scheduler, and keeps the strict alternation the kernel relies
// on: next runs the body until it yields, yield returns to the caller of
// next.
type handoff struct {
	next    func() (struct{}, bool)
	yieldFn func(struct{}) bool
}

// start prepares run as the proc's coroutine; it first runs on the first
// resume.
func (p *Proc) start(run func()) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		run()
	})
}

// resume hands the CPU to the proc and returns when it yields or ends.
func (p *Proc) resume() { p.next() }

// yield hands the CPU back to the scheduler and returns when it resumes
// the proc.
func (p *Proc) yield() { p.yieldFn(struct{}{}) }
