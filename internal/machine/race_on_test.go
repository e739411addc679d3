//go:build race

package machine

// raceEnabled trims the differential trials under the race detector,
// whose ~10x slowdown on hundreds of generated programs would dominate
// the race gate; the interleavings it probes do not depend on the
// program.
const raceEnabled = true
