package main

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"enki/internal/core"
	"enki/internal/netproto"
	"enki/internal/sched"
)

// The traced run times layers from outside the program by wrapping its
// public extension points: the scheduler (WithScheduler), the agents'
// connections (WithDialer), each household's Policy, and the writer
// behind WithLedger.

// timedScheduler wraps the center's scheduler and records a span per
// Allocate call.
type timedScheduler struct {
	inner sched.Scheduler
	rec   *spanRecorder
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Allocate(reports []core.Report) ([]core.Assignment, error) {
	start := time.Now()
	out, err := t.inner.Allocate(reports)
	t.rec.wrapped(spanSched, start, time.Now())
	return out, err
}

// houseDay is what one household's policy saw on the current day. Each
// recordingPolicy owns its slot; the cluster calls a household's policy
// from one shard goroutine, and the driver reads the slots only after
// ClusterDay has returned.
type houseDay struct {
	pref  core.Preference
	alloc core.Interval
	pay   netproto.PaymentDetail
}

// recordingPolicy wraps a household's Policy and keeps the day's
// report, allocation and bill, so the traced run can re-time the
// mechanism, ledger and wire layers on the day's own inputs.
type recordingPolicy struct {
	inner netproto.Policy
	slot  *houseDay
}

func (p *recordingPolicy) Report(day int) core.Preference {
	p.slot.pref = p.inner.Report(day)
	return p.slot.pref
}

func (p *recordingPolicy) Consume(day int, allocation core.Interval) core.Interval {
	p.slot.alloc = allocation
	return p.inner.Consume(day, allocation)
}

func (p *recordingPolicy) Feedback(day int, detail netproto.PaymentDetail) {
	p.slot.pay = detail
	p.inner.Feedback(day, detail)
}

// connCounts counts Read/Write calls and bytes on the agent side of
// every wrapped connection.
type connCounts struct {
	calls, bytes atomic.Int64
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.calls.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.calls.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

// countingDialer wraps a DialFunc so every connection it returns is
// counted.
func countingDialer(dial netproto.DialFunc, c *connCounts) netproto.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		conn, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, c: c}, nil
	}
}

// tcpDialer is the plain TCP DialFunc Connect uses by default.
func tcpDialer(addr string) netproto.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// ledgerSink is the writer behind WithLedger: it counts the bytes the
// program journals and discards them, so the ledger costs its encoding
// and write path but never grows memory. In the traced run it records a
// span per write.
type ledgerSink struct {
	n   atomic.Int64
	rec *spanRecorder
}

func (w *ledgerSink) Write(p []byte) (int, error) {
	start := time.Now()
	w.n.Add(int64(len(p)))
	w.rec.wrapped(spanLedgerW, start, time.Now())
	return len(p), nil
}
