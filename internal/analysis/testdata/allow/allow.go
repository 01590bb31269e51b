// Package allow is the suppression fixture: one //flovlint:allow names
// a real rule, one misspells it and one names a rule that no longer
// exists. Markers as in testdata/fixture.
package allow

import "time"

// Stamp reads the wall clock twice. The first read is suppressed; the
// misspelt suppression hides nothing and is a finding itself.
func Stamp() int64 {
	a := time.Now().Unix() //flovlint:allow nondeterm -- fixture: a working suppression

	b := time.Now().Unix() //flovlint:allow nondetrm -- fixture: a typo // want nondeterm allow

	//flovlint:allow purity -- fixture: a retired rule // want allow

	return a + b
}
