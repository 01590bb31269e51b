package flov_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"flov"
)

// kernelDigests pins the JSON rows of two short seed-1 gFLOV points in
// the two regimes the cycle kernel must get exactly right: near
// saturation (no router sleeps; the RC/VA/SA pipeline and link queues
// do the work) and low load with 70% of cores gated (the FLOV
// sleep/latch path does). parsecDigest pins the third: the JSON Outcome
// of the seed-1 closed-loop PARSEC dedup run under gFLOV, where the
// trace driver gates cores mid-run and enqueues packets while the
// network steps. Any kernel change that alters a simulated statistic
// changes a digest. Record new digests from the failure
// message only when that change is intended. The digests were recorded
// on amd64; a platform that fuses multiply-adds may compute different
// floating-point rows.
var kernelDigests = []struct {
	name        string
	rate, gated float64
	warmup      int64
	total       int64
	digest      string
}{
	{"saturation", 0.34, 0, 500, 4_000, "1ff091b1fc1c517c16c0153091a1bf699fb58de74803547e3e79142babc99e56"},
	{"lowload", 0.02, 0.7, 1_000, 10_000, "a90027760e54be02bb70f40b57958876a9a37d8b35cd82b7591f11c0ead1bc0e"},
}

const parsecDigest = "0a3b980c47b0fc6a1b0defaed86f7f32f2e3f5742679e6364d6b687af57e4e62"

// digestOf returns the hex SHA-256 of v's JSON encoding.
func digestOf(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestKernelRowDigests(t *testing.T) {
	for _, k := range kernelDigests {
		t.Run(k.name, func(t *testing.T) {
			cfg := flov.Default()
			cfg.Seed = 1
			cfg.WarmupCycles = k.warmup
			cfg.TotalCycles = k.total
			res, err := flov.RunSynthetic(flov.SyntheticOptions{
				Config:        cfg,
				Mechanism:     flov.GFLOV,
				Pattern:       flov.Uniform,
				InjRate:       k.rate,
				GatedFraction: k.gated,
				GatedSeed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Undelivered != 0 {
				t.Fatalf("%d flits undelivered", res.Undelivered)
			}
			if got := digestOf(t, res); got != k.digest {
				t.Errorf("rows digest %s, want %s", got, k.digest)
			}
		})
	}
	t.Run("parsec-dedup", func(t *testing.T) {
		out, err := flov.RunPARSEC("dedup", flov.GFLOV, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestOf(t, out); got != parsecDigest {
			t.Errorf("outcome digest %s, want %s", got, parsecDigest)
		}
	})
}
