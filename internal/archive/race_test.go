//go:build race

package archive

// raceEnabled reports a -race build, for tests whose cost the race
// detector multiplies without adding coverage.
const raceEnabled = true
