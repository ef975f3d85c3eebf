//go:build !race

package lfoc

// raceEnabled reports whether the race detector is built in; its
// runtime allocates on its own account.
const raceEnabled = false
