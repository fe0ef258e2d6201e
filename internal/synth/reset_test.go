package synth_test

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/synth"
	"repro/internal/workload"
)

// resetUops is how many uops each reset stream is checked against a
// fresh one: enough for every profile's program to wrap several times.
const resetUops = 4_000

// requireFresh checks that s, just reset to p, emits uop for uop what
// NewStream(p) emits.
func requireFresh(t *testing.T, label string, s *synth.Stream, p synth.Params, n int) {
	t.Helper()
	want := synth.MustNewStream(p)
	if got, w := s.StaticUops(), want.StaticUops(); got != w {
		t.Fatalf("%s: %d static uops, fresh stream has %d", label, got, w)
	}
	if l := synth.OverlayLen(s); l != 0 {
		t.Fatalf("%s: reset stream starts with %d overlay stores", label, l)
	}
	var got, exp isa.Uop
	for i := 0; i < n; i++ {
		s.Next(&got)
		want.Next(&exp)
		if got != exp {
			t.Fatalf("%s: uop %d differs from a fresh stream's\n got: %v\nwant: %v", label, i, &got, &exp)
		}
	}
}

// resetProfiles returns every SPEC Int 2000 profile and every 20th
// profile of the 412-trace suite, which spans all its categories.
func resetProfiles() []workload.Profile {
	profiles := workload.SpecInt2000()
	suite := workload.Suite()
	for i := 0; i < len(suite); i += 20 {
		profiles = append(profiles, suite[i])
	}
	return profiles
}

// TestResetMatchesNewStream chains one stream through three rounds of
// Reset over the profiles (forward, backward, forward), so each profile
// follows a larger and a smaller program than its own.
func TestResetMatchesNewStream(t *testing.T) {
	profiles := resetProfiles()
	if n := len(profiles) - len(workload.SpecInt2000()); n < 20 {
		t.Fatalf("only %d suite profiles", n)
	}
	s := synth.MustNewStream(synth.DefaultParams())
	var u isa.Uop
	for round := 0; round < 3; round++ {
		for k := range profiles {
			i := k
			if round == 1 {
				i = len(profiles) - 1 - k
			}
			p := profiles[i]
			if err := s.Reset(p.Params); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			requireFresh(t, p.Name, s, p.Params, resetUops)
			// Leave the stream part-way through an odd number of uops, so
			// the next Reset starts from mid-program state.
			for range i * 37 {
				s.Next(&u)
			}
		}
	}
}

// TestResetClearsOverlay runs a store-heavy stream past the overlay's
// generational clear, then resets it to its own parameters. Besides the
// empty overlay requireFresh checks for, the rerun's loads read the
// loop-counter-indexed addresses the first run kept storing to after
// the clear, so a stale overlay would also change the loaded values.
func TestResetClearsOverlay(t *testing.T) {
	p := synth.DefaultParams()
	p.Seed, p.Segments = 2, 40
	p.WorkingSet, p.StrideBytes = 64<<20, 4
	p.FracStore, p.NarrowOffsetFrac, p.AddrUseFrac = 0.3, 0.1, 0
	s := synth.MustNewStream(p)
	var u isa.Uop
	cleared, peak := false, 0
	for i := 0; i < 4_000_000 && !cleared; i++ {
		s.Next(&u)
		l := synth.OverlayLen(s)
		cleared = l < peak
		peak = max(peak, l)
	}
	if !cleared {
		t.Fatalf("overlay never reached its generational clear (peak %d stores)", peak)
	}
	for range 50_000 {
		s.Next(&u)
	}
	if err := s.Reset(p); err != nil {
		t.Fatal(err)
	}
	requireFresh(t, "rerun after clear", s, p, resetUops)
}

// TestResetRejectsInvalid checks an invalid Reset returns the validation
// error and leaves the stream running where it was.
func TestResetRejectsInvalid(t *testing.T) {
	p := synth.DefaultParams()
	s, ref := synth.MustNewStream(p), synth.MustNewStream(p)
	var got, want isa.Uop
	for range 1000 {
		s.Next(&got)
		ref.Next(&want)
	}
	if err := s.Reset(synth.Params{}); err == nil {
		t.Fatal("Reset must reject zero params")
	}
	for i := 0; i < resetUops; i++ {
		s.Next(&got)
		ref.Next(&want)
		if got != want {
			t.Fatalf("uop %d after a rejected Reset differs", i)
		}
	}
}

// TestAcquireReleaseMatchesNewStream runs the same property through the
// pool: a stream acquired after another was released, which Acquire
// typically hands back reset, matches a fresh one.
func TestAcquireReleaseMatchesNewStream(t *testing.T) {
	var u isa.Uop
	for round := 0; round < 2; round++ {
		for _, p := range resetProfiles() {
			s, err := synth.Acquire(p.Params)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			requireFresh(t, p.Name, s, p.Params, resetUops)
			s.Next(&u)
			synth.Release(s)
		}
	}
	if _, err := synth.Acquire(synth.Params{}); err == nil {
		t.Fatal("Acquire must reject zero params")
	}
}
