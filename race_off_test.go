//go:build !race

package flov_test

// raceDetectorOn is false in ordinary test builds; see race_on_test.go.
const raceDetectorOn = false
