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
// sleep/latch path does). Any kernel change that alters a simulated
// statistic changes a digest. Record new digests from the failure
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
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != k.digest {
				t.Errorf("rows digest %s, want %s", got, k.digest)
			}
		})
	}
}
