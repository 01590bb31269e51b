package assert

import "testing"

// Changing any single folded value, or its position, changes the digest.
func TestDigestDetectsSingleChanges(t *testing.T) {
	fold := func(vs []int64) Digest {
		var d Digest
		for _, v := range vs {
			d.Add(v)
		}
		return d
	}
	base := []int64{3, 0, -1, 1 << 40, 7}
	want := fold(base)
	for i := range base {
		for _, delta := range []int64{1, -1, 1 << 62, -(1 << 63)} {
			vs := append([]int64(nil), base...)
			vs[i] += delta
			if fold(vs) == want {
				t.Fatalf("digest unchanged after adding %d to value %d", delta, i)
			}
		}
	}
	if fold([]int64{1, 0}) == fold([]int64{0, 1}) {
		t.Fatal("digest ignores value order")
	}
	if fold([]int64{0}) == fold([]int64{0, 0}) {
		t.Fatal("digest ignores how many values were folded")
	}
	var a, b Digest
	a.AddBool(true)
	b.AddBool(false)
	if a == b {
		t.Fatal("AddBool folds true and false alike")
	}
}
