package main

import (
	"time"

	"heron/internal/sim"
)

// span is one benchmark-side span around a call into a layer. Spans of
// simulated operations are stamped in virtual time; set-up spans in host
// time since the process started.
type span struct {
	Name   string `json:"name"`
	Client int    `json:"client"` // issuing client, -1 for set-up and fault spans
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Host   bool   `json:"host,omitempty"` // stamped in host time
}

// spanLog keeps the traced repetition's spans in memory; they are
// written out when the run ends. All methods are no-ops on nil, so the
// untraced path carries one pointer test per call.
type spanLog struct {
	spans []span
	epoch time.Time
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// virtual records a span of simulated work and returns its index.
func (l *spanLog) virtual(name string, client, parent int, start, end sim.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Client: client, Parent: parent, Start: int64(start), End: int64(end)})
	return len(l.spans) - 1
}

// host records a set-up span in host time.
func (l *spanLog) host(name string, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Client: -1, Parent: parent,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)), Host: true})
	return len(l.spans) - 1
}

// setupClock times the set-up phases of one repetition: each phase's
// host time is kept for the metrics and, when traced, logged as a span
// under one "setup" span.
type setupClock struct {
	log   *spanLog
	start time.Time
	last  time.Time
	names []string
	ends  []time.Time
}

func startSetup(log *spanLog) *setupClock {
	now := time.Now()
	return &setupClock{log: log, start: now, last: now}
}

// phase closes the current phase under the given name and returns its
// duration.
func (c *setupClock) phase(name string) time.Duration {
	now := time.Now()
	d := now.Sub(c.last)
	c.names = append(c.names, name)
	c.ends = append(c.ends, now)
	c.last = now
	return d
}

// done closes set-up and returns its total host time.
func (c *setupClock) done() time.Duration {
	parent := c.log.host("setup", -1, c.start, c.last)
	from := c.start
	for i, name := range c.names {
		c.log.host("setup."+name, parent, from, c.ends[i])
		from = c.ends[i]
	}
	return c.last.Sub(c.start)
}
