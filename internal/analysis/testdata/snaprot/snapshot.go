// Package snapshot stands in for the checkpoint package with its Save
// driver renamed, so statecov's driver list no longer resolves.
package snapshot

// Restore still resolves.
func Restore() {}

// SaveTo is Save under a new name.
func SaveTo() {}
