//go:build race

package flov_test

// raceDetectorOn reports that this test binary was built with -race.
// The race detector's shadow-memory bookkeeping shows up in the malloc
// count, so TestStepAllocBudget skips under it.
const raceDetectorOn = true
