package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// hardSlack, with twice the budget, bounds a stretch's wall time: set-up,
// checks and the traced run's work between days run outside the budget,
// and a stretch keeps going until it has its minimum day count.
const hardSlack = 30 * time.Second

// maxConsecutiveErrors ends an episode whose days keep failing.
const maxConsecutiveErrors = 3

// hooks let the traced run observe each episode and day; the timed run
// leaves them nil. before runs just before a day's timing starts, after
// just after it stops.
type hooks struct {
	opened  func(ep episode)
	before  func(ep episode, day int)
	after   func(ep episode, out dayOutcome, start, end time.Time)
	closing func(ep episode)
}

// driveConfig is one measured stretch of a run.
type driveConfig struct {
	w       *workload
	env     *env
	inst    instrument
	budget  time.Duration // summed wall time of the timed days
	minDays int           // keep going past the budget until this many days
	hooks   hooks
}

// stretch is what one drive measured.
type stretch struct {
	dayMS             []float64
	setupS            []float64
	attempted, failed int     // days
	enrolled, settled float64 // household-days
	dark              float64 // household-days absent, substituted, or on a failed day
	dayNS             int64   // summed timed wall time
	allocBytes        float64 // TotalAlloc growth over the timed days
	retainedBytes     float64 // HeapInuse growth after GC, set-up end to episode end
	retainedDays      int
	problems          []string
}

func (s *stretch) problem(format string, args ...any) {
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// drive runs episodes of cfg.w until its timed days have used the
// budget: set up (timed as set-up), settle consecutive timed days,
// check, close.
func drive(ctx context.Context, cfg driveConfig) *stretch {
	st := &stretch{}
	hard := time.Now().Add(2*cfg.budget + hardSlack)
	more := func() bool {
		return time.Now().Before(hard) &&
			(time.Duration(st.dayNS) < cfg.budget || len(st.dayMS) < cfg.minDays)
	}
	for first := true; more() && ctx.Err() == nil; first = false {
		if !driveEpisode(ctx, cfg, st, more, first) {
			break
		}
	}
	return st
}

// driveEpisode runs one episode and reports whether the run goes on.
func driveEpisode(ctx context.Context, cfg driveConfig, st *stretch, more func() bool, first bool) bool {
	households := float64(len(cfg.env.types))
	t0 := time.Now()
	ep, err := cfg.w.open(ctx, cfg.env, cfg.inst)
	if err != nil {
		st.attempted++
		st.failed++
		st.problem("set-up: %v", err)
		return false
	}
	st.setupS = append(st.setupS, time.Since(t0).Seconds())
	defer ep.close()
	if cfg.hooks.opened != nil {
		cfg.hooks.opened(ep)
	}

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var outs []dayOutcome
	consecutive := 0
	for d := 1; (cfg.w.maxDays == 0 || d <= cfg.w.maxDays) && more(); d++ {
		if cfg.hooks.before != nil {
			cfg.hooks.before(ep, d)
		}
		ts := time.Now()
		out, err := ep.settle(ctx, d)
		te := time.Now()
		st.attempted++
		st.enrolled += households
		if err != nil {
			st.failed++
			st.dark += households
			st.problem("day %d: %v", d, err)
			if consecutive++; consecutive >= maxConsecutiveErrors {
				break
			}
			continue
		}
		consecutive = 0
		st.dayMS = append(st.dayMS, ms(te.Sub(ts)))
		st.dayNS += te.Sub(ts).Nanoseconds()
		st.settled += float64(out.settled)
		st.dark += float64(out.dark)
		outs = append(outs, out)
		if cfg.hooks.after != nil {
			cfg.hooks.after(ep, out, ts, te)
		}
	}
	runtime.ReadMemStats(&m1)
	st.allocBytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	st.retainedBytes += float64(m2.HeapInuse) - float64(m0.HeapInuse)
	st.retainedDays += len(outs)
	if cfg.hooks.closing != nil {
		cfg.hooks.closing(ep)
	}

	goOn := more() && consecutive < maxConsecutiveErrors
	bad, err := ep.finish(ctx, outs, first || !goOn)
	if err != nil {
		// A whole-episode fault fails every day it settled.
		st.failed += len(outs)
		st.problem("episode check: %v", err)
		return false
	}
	for _, o := range outs {
		if bad[o.day] {
			st.failed++
			st.problem("day %d failed its correctness check", o.day)
		}
	}
	return goOn
}

// extraSetups sets the workload up (and closes it) until the stretch
// holds n set-up samples, so set-up time is a median of several.
func extraSetups(ctx context.Context, w *workload, env *env, st *stretch, n int) {
	for len(st.setupS) < n && ctx.Err() == nil {
		t0 := time.Now()
		ep, err := w.open(ctx, env, instrument{})
		if err != nil {
			st.problem("set-up: %v", err)
			return
		}
		st.setupS = append(st.setupS, time.Since(t0).Seconds())
		ep.close()
	}
}
