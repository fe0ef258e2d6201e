package synth

// OverlayLen returns the number of stores s's memory overlay holds.
func OverlayLen(s *Stream) int { return len(s.mem.overlay) }
