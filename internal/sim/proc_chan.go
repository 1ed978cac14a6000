//go:build !go1.23

package sim

// handoff runs a proc body on its own goroutine, passing the CPU over a
// pair of channels. The channels have capacity 1 so that handing the
// token over never parks the giving side: a context switch costs one
// park (the receiving side) instead of two. The strict alternation of
// scheduler and process keeps at most one token in flight.
type handoff struct {
	resumeCh chan struct{} // scheduler -> proc: you have the CPU
	yieldCh  chan struct{} // proc -> scheduler: I gave it back
}

// start launches run on the proc's goroutine; it first runs on the first
// resume.
func (p *Proc) start(run func()) {
	p.resumeCh = make(chan struct{}, 1)
	p.yieldCh = make(chan struct{}, 1)
	go func() {
		<-p.resumeCh
		defer func() { p.yieldCh <- struct{}{} }()
		run()
	}()
}

// resume hands the CPU to the proc and returns when it yields or ends.
func (p *Proc) resume() {
	p.resumeCh <- struct{}{}
	<-p.yieldCh
}

// yield hands the CPU back to the scheduler and returns when it resumes
// the proc.
func (p *Proc) yield() {
	p.yieldCh <- struct{}{}
	<-p.resumeCh
}
