package core

// SetEveryBeacon makes every cluster New builds from now on take each pacing
// beacon as an arrival event (the every-beacon reference), or none of them
// if off, so a test of another package can run a scenario both ways. A test
// that sets it must not run in parallel with one that builds clusters.
func SetEveryBeacon(on bool) { everyBeacon = on }
