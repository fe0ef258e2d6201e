package synth

import "sync"

// streamPool recycles Streams across jobs. Building a stream's program
// and memory overlay allocates per static uop; Reset reuses all of that
// storage, so batch loops and grid workers generate programs without
// touching the allocator once warm.
var streamPool sync.Pool

// Acquire returns the stream of p: a pooled one reset in place when
// available, a fresh one otherwise. The two are uop for uop identical
// (NewStream is Reset on a zero Stream). Pass the stream to Release when
// the run that consumes it is done.
func Acquire(p Params) (*Stream, error) {
	if v := streamPool.Get(); v != nil {
		s := v.(*Stream)
		if err := s.Reset(p); err != nil {
			streamPool.Put(s)
			return nil, err
		}
		return s, nil
	}
	return NewStream(p)
}

// Release returns s to the pool for reuse by a later Acquire. Neither
// the caller nor anything it handed s to (a simulator's fetch window)
// may use s afterwards: the next Acquire regenerates it for another
// job. Releasing is optional (a dropped Stream is just garbage) and nil
// is a no-op.
func Release(s *Stream) {
	if s != nil {
		streamPool.Put(s)
	}
}
