package core

import (
	"sync"

	"repro/internal/config"
	"repro/internal/steer"
	"repro/internal/trace"
)

// simPool recycles Sims across runs. A Sim's storage — ROB ring and hot
// arrays, issue queues, rename structures, predictor tables, cache arrays,
// the replay window, scratch buffers — is over a megabyte; Reset reuses
// all of it when shapes match, so batch harnesses and grid workers pay
// construction cost once per worker instead of once per job.
var simPool sync.Pool

// Acquire returns a Sim configured for the given run: a pooled one reset
// in place when available, a fresh one otherwise. The two are behaviorally
// byte-identical (New is Reset on a zero Sim). Pass the Sim to Release
// when the run's Result has been taken.
func Acquire(cfg config.Processor, pol steer.Policy, src trace.Source) (*Sim, error) {
	if v := simPool.Get(); v != nil {
		s := v.(*Sim)
		if err := s.Reset(cfg, pol, src); err != nil {
			simPool.Put(s)
			return nil, err
		}
		return s, nil
	}
	return New(cfg, pol, src)
}

// Release returns s to the pool for reuse by a later Acquire, after
// dropping its uop source. The caller must not touch s afterwards.
// Releasing is optional (a dropped Sim is just garbage) and nil is a
// no-op.
func Release(s *Sim) {
	if s == nil {
		return
	}
	// Drop the progress callback and the uop source so a pooled idle Sim
	// pins neither the caller's closure (and whatever it captured) nor a
	// stream or trace source that its owner recycles after this.
	s.SetProgress(0, nil)
	s.window.Reset(nil)
	simPool.Put(s)
}
