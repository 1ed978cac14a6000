package bench

import "testing"

// The gate note must state exactly the thresholds the sim-parallel-smoke
// CI job asserts: >= 5x at 8+ cores, >= 1.2x at 2-7, >= 0.5x at 1.
func TestSpeedupGateNoteMatchesCI(t *testing.T) {
	for _, tc := range []struct {
		cores int
		min   float64
		note  string
	}{
		{1, 0.5, "1 core(s) detected: CI requires speedup >= 0.5x and delivered_match"},
		{2, 1.2, "2 core(s) detected: CI requires speedup >= 1.2x and delivered_match"},
		{4, 1.2, "4 core(s) detected: CI requires speedup >= 1.2x and delivered_match"},
		{7, 1.2, "7 core(s) detected: CI requires speedup >= 1.2x and delivered_match"},
		{8, 5, "8 core(s) detected: CI requires speedup >= 5.0x and delivered_match"},
		{64, 5, "64 core(s) detected: CI requires speedup >= 5.0x and delivered_match"},
	} {
		if got := minSpeedup(tc.cores); got != tc.min {
			t.Errorf("minSpeedup(%d) = %v, want %v", tc.cores, got, tc.min)
		}
		if got := speedupGateNote(tc.cores); got != tc.note {
			t.Errorf("speedupGateNote(%d) = %q, want %q", tc.cores, got, tc.note)
		}
	}
}
