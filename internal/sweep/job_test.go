package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"flov/internal/config"
	"flov/internal/fault"
	"flov/internal/network"
	"flov/internal/stats"
	"flov/internal/trace"
	"flov/internal/traffic"
)

// quickJob returns a small, fast synthetic point for engine tests.
func quickJob(mech config.Mechanism, rate, frac float64) Job {
	cfg := config.Default()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupCycles, cfg.TotalCycles = 500, 4_000
	cfg.Seed = 7
	cfg.Mechanism = config.MechanismCode(mech)
	return Job{
		Kind:      Synthetic,
		Config:    cfg,
		Pattern:   traffic.Uniform,
		Rate:      rate,
		Frac:      frac,
		Mechanism: mech,
		MaskSeed:  99,
	}
}

func TestJobHashDeterministic(t *testing.T) {
	a := quickJob(config.GFLOV, 0.02, 0.5)
	b := quickJob(config.GFLOV, 0.02, 0.5)
	if a.Hash() != b.Hash() {
		t.Fatalf("equal jobs hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash is not hex sha256: %q", a.Hash())
	}
}

func TestJobHashSensitivity(t *testing.T) {
	base := quickJob(config.GFLOV, 0.02, 0.5)
	mutations := map[string]Job{}

	j := base
	j.Rate = 0.03
	mutations["rate"] = j

	j = base
	j.Frac = 0.6
	mutations["frac"] = j

	j = base
	j.Mechanism = config.RP
	mutations["mechanism"] = j

	j = base
	j.MaskSeed++
	mutations["mask seed"] = j

	j = base
	j.Config.Seed++
	mutations["config seed"] = j

	j = base
	j.Config.WakeupLatency = 40
	mutations["config knob"] = j

	j = base
	j.Pattern = traffic.Tornado
	mutations["pattern"] = j

	j = base
	j.Protect = []int{0}
	mutations["protect"] = j

	for name, m := range mutations {
		if m.Hash() == base.Hash() {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

func TestJobJSONRoundTrip(t *testing.T) {
	prof, _ := trace.ProfileByName("canneal")
	jobs := []Job{
		quickJob(config.RFLOV, 0.08, 0.3),
		{
			Kind:      PARSEC,
			Config:    config.FullSystem(),
			Mechanism: config.RP,
			Profile:   prof,
			Seed:      11,
			MaxCycles: 123,
		},
	}
	for _, j := range jobs {
		data, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		var back Job
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Hash() != j.Hash() {
			t.Errorf("round trip changed the job:\n  in:  %+v\n  out: %+v", j, back)
		}
	}
}

// TestJobCanonicalIsMarshal: the hash preimage is exactly the bytes
// json.Marshal renders for the job, for every field shape a job can
// carry, behind the version prefix.
func TestJobCanonicalIsMarshal(t *testing.T) {
	prefix := SchemaVersion + "|" + snapSchemaVersion + "|" + versionToken + "|"
	rich := quickJob(config.GFLOV, 0.05, 0.25)
	rich.Pattern = traffic.Hotspot
	rich.Protect = []int{0, 3}
	rich.Hotspots = []int{5, 10}
	rich.Faults = &fault.Spec{Seed: 3, LinkRate: 1e-4, Schedule: []fault.Event{
		{At: 100, Kind: "link", Node: 5, Dir: "E", Transient: 40},
		{At: 200, Kind: "router", Node: 9},
	}}
	cases := map[string]Job{"synthetic with protect, hotspots and faults": rich}
	for _, p := range traffic.Patterns() {
		j := quickJob(config.RP, 0.02, 0.5)
		j.Pattern = p
		cases["pattern "+p.String()] = j
	}
	parsec, err := (Spec{Benchmarks: []string{"dedup"}, Mechanisms: []string{"gflov"}}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	cases["parsec"] = parsec[0]
	for name, j := range cases {
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.canonical(); string(got) != string(want) {
			t.Errorf("%s: canonical encoding differs from json.Marshal:\n%s\n%s", name, got, want)
		}
		if sum := sha256.Sum256(append([]byte(prefix), want...)); j.Hash() != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: Hash is not SHA-256 of the versions and json.Marshal(j)", name)
		}
	}
}

// TestJobCanonicalPinned pins the canonical encoding (without the
// version prefix, which differs between builds) of one job per
// mechanism, per pattern name and per optional block: any change to it
// orphans every cache entry and warm blob, so update a literal only
// when that is intended (a new Config field, say). json.Marshal must
// render the same bytes, since a stream row carries the job that way.
func TestJobCanonicalPinned(t *testing.T) {
	withPattern := func(p traffic.Pattern) Job {
		j := quickJob(config.RP, 0.02, 0.5)
		j.Pattern = p
		return j
	}
	gflov := quickJob(config.GFLOV, 0.02, 0.5)
	gflov.Protect = []int{0, 5}
	hotspot := withPattern(traffic.Hotspot)
	hotspot.Hotspots = []int{5, 10}
	hotspot.Protect = []int{0, 3}
	faults := quickJob(config.GFLOV, 0.05, 0.25)
	faults.Faults = &fault.Spec{Seed: 3, LinkRate: 1e-4, TransientCycles: 60, Schedule: []fault.Event{
		{At: 100, Kind: "link", Node: 5, Dir: "E", Transient: 40},
		{At: 200, Kind: "router", Node: 9},
	}}
	parsec, err := (Spec{Benchmarks: []string{"canneal"}, Mechanisms: []string{"rflov"}, Seed: 11, MaxCycles: 123_456}).Jobs()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		job  Job
		want string
	}{
		{"gflov protect", gflov, "28edd7966dc039e5d0c6c55cad4df37eb6209267dae617a11525114cfef4855f"},
		{"baseline", quickJob(config.Baseline, 0.02, 0.5), "c8b4319bb0334e2614509d853753644f243d05d7a5e9d1970e7586b252d16999"},
		{"rp", quickJob(config.RP, 0.02, 0.5), "4111d4c4e6974e7d15dc2f11a688cf24f25082e9cbfa7e5371202a2b261a6722"},
		{"rflov", quickJob(config.RFLOV, 0.02, 0.5), "14876c067e313c68b7076d0bb375791d2cec4e6132bdc2f9bd4734c949c9a677"},
		{"tornado", withPattern(traffic.Tornado), "050da04339cad8a2bbd782c569c4745c35066234cd14909caa0892866f6a2e4e"},
		{"transpose", withPattern(traffic.Transpose), "e70c6671f1221685754f6632a9606da27ad0ddd78f6b19b5231f555c9db3623c"},
		{"bitcomp", withPattern(traffic.BitComplement), "5cb77aec74f1d39c22fbd925f63c8a472bdcbb52b23ba7cd72b709e92c32dd20"},
		{"neighbor", withPattern(traffic.Neighbor), "a232fd98d312c77713fab7e61150249017cf2767fa0d0f22cbd69f93672891da"},
		{"hotspot", hotspot, "d5ca2957b9752123f89245875146e16dbecb60df6a50783e25ed71df8ccdfa13"},
		{"faults", faults, "b1d66a26919a3a04c140a200e63f2326feb7325df7caa027caa6dfc63bbdf19e"},
		{"parsec", parsec[0], "be78119b73735d5e161ebc7691892dfa2bd3958c777b024f31aedf7f3dda7bbd"},
	} {
		enc := c.job.canonical()
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: canonical encoding hash = %s, want %s\n%s", c.name, got, c.want, enc)
		}
		if m, err := json.Marshal(c.job); err != nil || !bytes.Equal(m, enc) {
			t.Errorf("%s: json.Marshal = %s, %v; want the canonical bytes", c.name, m, err)
		}
	}
}

// TestResultRowPinned pins the full JSON of one synthetic and one
// PARSEC result: the body of a stream line, a cluster event and a cache
// entry. The values are literals, so only a change to the wire form
// (not to the simulator) moves these bytes.
func TestResultRowPinned(t *testing.T) {
	syn := quickJob(config.GFLOV, 0.02, 0.5)
	syn.Protect = []int{0, 5}
	parsec, err := (Spec{Benchmarks: []string{"dedup"}, Mechanisms: []string{"gflov"}, Seed: 1, MaxCycles: 2_000}).Jobs()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		row  Result
		want string
	}{
		{"synthetic", Result{Job: syn, Res: network.Results{
			Mechanism: "gFLOV", Pattern: "uniform", InjRate: 0.02, GatedPct: 0.5,
			AvgLatency: 21.75, AvgNetLatency: 17.5, Breakdown: stats.Breakdown{Router: 9.25, Link: 4, Serialization: 3, FLOV: 1.25, Contention: 0.5},
			MaxLatency: 64, P99Latency: 32, AvgHops: 2.6, EscapeFrac: 0.01,
			StaticPowerW: 0.05, DynamicPowerW: 0.0125, TotalPowerW: 0.0625,
			StaticEnergyPJ: 87500, DynamicEnergyPJ: 21875, TotalEnergyPJ: 109375,
			Packets: 311, Cycles: 3500, RunCycles: 4096, ThroughputFpc: 0.0199,
			Timeline:     []stats.TimeBin{{Start: 0, Count: 40, AvgLat: 20.5, SumLat: 820}, {Start: 1000, Count: 7, AvgLat: 19}},
			GatedRouters: 6, PoweredRouters: 10,
		}}, `{"job":{"kind":"synthetic","config":{"Width":4,"Height":4,"BufferDepth":6,"RouterStages":3,"VCsPerVNet":3,"EscapePerVNet":1,"VNets":1,"LinkLatency":1,"PacketSize":4,"EjectionQueues":4,"ClockHz":2000000000,"GatingOverheadPJ":17.7,"WakeupLatency":10,"IdleThreshold":8,"EscapeTimeout":64,"FLOVHopLatency":1,"TransitionTimeout":256,"RetryBackoff":32,"RPPhase1Base":700,"RPPhase1PerNode":2,"WarmupCycles":500,"TotalCycles":4000,"DrainCycles":20000,"Seed":7,"TimelineBinSz":1000,"Mechanism":3},"pattern":"uniform","rate":0.02,"gated_frac":0.5,"mask_seed":99,"protect":[0,5],"mechanism":"gFLOV","profile":{"Name":"","GatedFraction":0,"MSHRs":0,"ThinkMean":0,"MCFraction":0,"ReqFlits":0,"RespFlits":0,"MCServiceLat":0,"PeerServiceLat":0,"QuotaPerCore":0,"Phases":0}},"res":{"Mechanism":"gFLOV","Pattern":"uniform","InjRate":0.02,"GatedPct":0.5,"AvgLatency":21.75,"AvgNetLatency":17.5,"Breakdown":{"Router":9.25,"Link":4,"Serialization":3,"FLOV":1.25,"Contention":0.5},"MaxLatency":64,"P99Latency":32,"AvgHops":2.6,"EscapeFrac":0.01,"StaticPowerW":0.05,"DynamicPowerW":0.0125,"TotalPowerW":0.0625,"StaticEnergyPJ":87500,"DynamicEnergyPJ":21875,"TotalEnergyPJ":109375,"Packets":311,"Cycles":3500,"RunCycles":4096,"Undelivered":0,"ThroughputFpc":0.0199,"Timeline":[{"start":0,"count":40,"avg_lat":20.5,"sum_lat":820},{"start":1000,"count":7,"avg_lat":19}],"GatedRouters":6,"PoweredRouters":10},"out":{"Benchmark":"","Mechanism":"","RuntimeCyc":0,"Transactions":0,"StaticPJ":0,"DynamicPJ":0,"TotalPJ":0,"AvgPktLatency":0,"Completed":false}}`},
		{"parsec", Result{Job: parsec[0], Err: IncompleteError("dedup", config.GFLOV, 2_000).Error(), Out: trace.Outcome{
			Benchmark: "dedup", Mechanism: "gFLOV", RuntimeCyc: 2_000, Transactions: 517,
			StaticPJ: 1.5e6, DynamicPJ: 2.25e5, TotalPJ: 1.725e6, AvgPktLatency: 14.125,
		}}, `{"job":{"kind":"parsec","config":{"Width":8,"Height":8,"BufferDepth":6,"RouterStages":3,"VCsPerVNet":3,"EscapePerVNet":1,"VNets":3,"LinkLatency":1,"PacketSize":4,"EjectionQueues":4,"ClockHz":2000000000,"GatingOverheadPJ":17.7,"WakeupLatency":10,"IdleThreshold":8,"EscapeTimeout":64,"FLOVHopLatency":1,"TransitionTimeout":256,"RetryBackoff":32,"RPPhase1Base":700,"RPPhase1PerNode":2,"WarmupCycles":0,"TotalCycles":1099511627776,"DrainCycles":20000,"Seed":1,"TimelineBinSz":1000,"Mechanism":3},"pattern":"uniform","mechanism":"gFLOV","profile":{"Name":"dedup","GatedFraction":0.5,"MSHRs":6,"ThinkMean":500,"MCFraction":0.35,"ReqFlits":1,"RespFlits":5,"MCServiceLat":40,"PeerServiceLat":12,"QuotaPerCore":100,"Phases":4},"seed":1,"max_cycles":2000},"err":"sweep: benchmark dedup/gFLOV did not complete within 2000 cycles","res":{"Mechanism":"","Pattern":"","InjRate":0,"GatedPct":0,"AvgLatency":0,"AvgNetLatency":0,"Breakdown":{"Router":0,"Link":0,"Serialization":0,"FLOV":0,"Contention":0},"MaxLatency":0,"P99Latency":0,"AvgHops":0,"EscapeFrac":0,"StaticPowerW":0,"DynamicPowerW":0,"TotalPowerW":0,"StaticEnergyPJ":0,"DynamicEnergyPJ":0,"TotalEnergyPJ":0,"Packets":0,"Cycles":0,"RunCycles":0,"Undelivered":0,"ThroughputFpc":0,"Timeline":null,"GatedRouters":0,"PoweredRouters":0},"out":{"Benchmark":"dedup","Mechanism":"gFLOV","RuntimeCyc":2000,"Transactions":517,"StaticPJ":1500000,"DynamicPJ":225000,"TotalPJ":1725000,"AvgPktLatency":14.125,"Completed":false}}`},
	} {
		got, err := json.Marshal(c.row)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s row:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

func TestJobJSONSymbolicNames(t *testing.T) {
	data, err := json.Marshal(quickJob(config.GFLOV, 0.02, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"synthetic"`, `"pattern":"uniform"`, `"mechanism":"gFLOV"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("job JSON missing %s:\n%s", want, data)
		}
	}
}

// TestJobJSONDecoding pins how a job's enum fields decode: names in
// any case, the empty pattern as Uniform, and a missing or null kind,
// pattern or mechanism as the zero value, like every other omitted
// field. Unknown names and numbers are errors. A cache entry whose job
// lost its mechanism key now names a different (Baseline) point, so
// DecodeEntry's re-hash still refuses it.
func TestJobJSONDecoding(t *testing.T) {
	for body, want := range map[string]Job{
		`{}`: {},
		`{"kind":null,"pattern":null,"mechanism":null}`:        {},
		`{"kind":"parsec","pattern":"","mechanism":"GFLOV"}`:   {Kind: PARSEC, Mechanism: config.GFLOV},
		`{"kind":"synthetic","pattern":"UR","mechanism":"rp"}`: {Pattern: traffic.Uniform, Mechanism: config.RP},
		`{"pattern":"bitcomp","mechanism":"restricted"}`:       {Pattern: traffic.BitComplement, Mechanism: config.RFLOV},
	} {
		var got Job
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		if got.Hash() != want.Hash() {
			t.Errorf("%s decoded as %+v, want %+v", body, got, want)
		}
	}
	for _, body := range []string{
		`{"kind":"bogus"}`, `{"kind":1}`, `{"kind":"Synthetic"}`,
		`{"pattern":"bogus"}`, `{"pattern":2}`,
		`{"mechanism":"bogus"}`, `{"mechanism":3}`, `{"mechanism":true}`,
	} {
		var j Job
		if err := json.Unmarshal([]byte(body), &j); err == nil {
			t.Errorf("%s decoded without error: %+v", body, j)
		}
	}

	j := quickJob(config.GFLOV, 0.02, 0.5)
	data, err := json.Marshal(entry{Hash: j.Hash(), Result: Result{Job: j}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := DecodeEntry(j.Hash(), data); !ok {
		t.Fatal("intact entry refused")
	}
	stripped := strings.Replace(string(data), `,"mechanism":"gFLOV"`, "", 1)
	if stripped == string(data) {
		t.Fatal("entry carries no mechanism key")
	}
	if _, ok := DecodeEntry(j.Hash(), []byte(stripped)); ok {
		t.Fatal("entry whose job lost its mechanism was served")
	}
}

func TestJobRunReportsErrors(t *testing.T) {
	j := quickJob(config.GFLOV, 0.02, 0.5)
	j.Config.Width = 0 // invalid mesh
	r := j.Run()
	if r.Err == "" {
		t.Fatal("invalid config produced no error")
	}
	if r.CacheHit {
		t.Fatal("fresh run marked as cache hit")
	}
}

func TestSpecExpansion(t *testing.T) {
	s := Spec{
		Patterns:   []string{"uniform", "tornado"},
		Rates:      []float64{0.02, 0.08},
		GatedFracs: []float64{0, 0.5},
		Mechanisms: []string{"baseline", "gflov"},
		Width:      4, Height: 4,
		Cycles: 4000, Warmup: 500,
		Seed: 3,
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2*2 {
		t.Fatalf("expected 16 jobs, got %d", len(jobs))
	}
	// Deterministic order: pattern x rate x frac x mechanism.
	if jobs[0].Pattern != traffic.Uniform || jobs[0].Mechanism != config.Baseline {
		t.Errorf("unexpected first job: %s", jobs[0].Desc())
	}
	if jobs[1].Mechanism != config.GFLOV {
		t.Errorf("mechanism should vary fastest, got %s", jobs[1].Desc())
	}
	last := jobs[len(jobs)-1]
	if last.Pattern != traffic.Tornado || last.Frac != 0.5 {
		t.Errorf("unexpected last job: %s", last.Desc())
	}
	for _, j := range jobs {
		if j.Config.Width != 4 || j.Config.TotalCycles != 4000 || j.Config.Seed != 3 {
			t.Fatalf("overrides not applied: %+v", j.Config)
		}
	}
}

// TestReadJobs pins the submission decoder both serving planes share:
// bounded body, wrapped parse errors, and a point-list identity under
// which two spellings of the same grid coincide.
func TestReadJobs(t *testing.T) {
	terse, err := ReadJobs(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := ReadJobs(strings.NewReader(
		`{"patterns":["uniform"],"rates":[0.02],"gated_fractions":[0.5],"mechanisms":["all"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if PointsHash(terse) != PointsHash(spelled) {
		t.Error("two spellings of one grid hash differently")
	}
	if PointsHash(terse[:1]) == PointsHash(terse) {
		t.Error("different point lists share a hash")
	}

	for body, want := range map[string]string{
		`{"rates":`:                         "parse spec: ",
		`{"mechanisms":["x"]}`:              "unknown mechanism",
		strings.Repeat(" ", MaxSpecBytes+1): fmt.Sprintf("spec larger than %d bytes", MaxSpecBytes),
	} {
		if _, err := ReadJobs(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadJobs(%.20q) = %v, want error containing %q", body, err, want)
		}
	}
}

// TestSpecPointCap: a spec expands to at most MaxSpecPoints points, and
// one point more is refused before any job is built.
func TestSpecPointCap(t *testing.T) {
	atCap := Spec{Rates: make([]float64, 256), GatedFracs: make([]float64, 64), Mechanisms: []string{"all"}}
	jobs, err := atCap.Jobs()
	if err != nil || len(jobs) != MaxSpecPoints {
		t.Fatalf("spec at the cap: %d jobs, %v; want %d", len(jobs), err, MaxSpecPoints)
	}
	body, err := json.Marshal(oversizedSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("more than %d points", MaxSpecPoints)
	if _, err := ReadJobs(bytes.NewReader(body)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("spec one point over the cap: %v, want error containing %q", err, want)
	}
	parsec := Spec{Benchmarks: make([]string, MaxSpecPoints/4+1), Mechanisms: []string{"all"}}
	if _, err := parsec.Jobs(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("PARSEC spec over the cap: %v, want error containing %q", err, want)
	}
}

// oversizedSpec expands to exactly one point more than MaxSpecPoints.
func oversizedSpec() Spec {
	return Spec{Rates: make([]float64, MaxSpecPoints+1), Mechanisms: []string{"gflov"}}
}

func TestSpecPARSEC(t *testing.T) {
	s := Spec{Benchmarks: []string{"all"}, Mechanisms: []string{"gflov"}}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(trace.Profiles()) {
		t.Fatalf("expected %d jobs, got %d", len(trace.Profiles()), len(jobs))
	}
	for _, j := range jobs {
		if j.Kind != PARSEC || j.Profile.Name == "" {
			t.Fatalf("bad PARSEC job: %+v", j)
		}
	}
	if _, err := (Spec{Benchmarks: []string{"nope"}}).Jobs(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := (Spec{Mechanisms: []string{"nope"}}).Jobs(); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	if _, err := (Spec{Patterns: []string{"nope"}}).Jobs(); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}
