package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"flov/internal/config"
	"flov/internal/sweep"
	"flov/internal/trace"
)

// ParsecRow is one benchmark x mechanism cell of Figs. 8 (c)/(d): static
// energy and runtime, raw and normalized to Baseline.
type ParsecRow struct {
	Benchmark string
	Mechanism string

	RuntimeCyc int64
	StaticPJ   float64
	DynamicPJ  float64
	TotalPJ    float64

	// Normalized to the same benchmark's Baseline run.
	NormStatic  float64
	NormTotal   float64
	NormRuntime float64

	// Err marks a failed point (or a point whose Baseline reference
	// failed, leaving the norm columns zero).
	Err string
}

// parsecJob builds the engine job for one benchmark x mechanism cell,
// applying the Quick profile reductions.
func parsecJob(prof trace.Profile, mech config.Mechanism, o Options) sweep.Job {
	if o.Quick {
		prof.QuotaPerCore /= 4
		if prof.QuotaPerCore < 10 {
			prof.QuotaPerCore = 10
		}
		if prof.Phases > 2 {
			prof.Phases = 2
		}
	}
	cfg := config.FullSystem()
	cfg.WarmupCycles = 0
	cfg.TotalCycles = 1 << 40
	cfg.Seed = o.Seed + 1
	cfg.Mechanism = config.MechanismCode(mech)
	return sweep.Job{
		Kind:      sweep.PARSEC,
		Config:    cfg,
		Mechanism: mech,
		Profile:   prof,
		Seed:      o.Seed + 7,
		MaxCycles: 50_000_000,
	}
}

// RunParsecBenchmark runs one benchmark under one mechanism.
func RunParsecBenchmark(prof trace.Profile, mech config.Mechanism, o Options) (trace.Outcome, error) {
	r := parsecJob(prof, mech, o).Run()
	if r.Err != "" {
		return r.Out, errors.New(r.Err)
	}
	return r.Out, nil
}

// ParsecSweep reproduces Figs. 8 (c)/(d): all nine benchmarks under all
// four mechanisms, normalized per benchmark to Baseline. The whole
// benchmark x mechanism grid runs through the engine; each Baseline run
// is simulated once and reused as its benchmark's normalization
// reference.
func ParsecSweep(o Options) ([]ParsecRow, error) {
	profs := trace.Profiles()
	mechs := config.Mechanisms() // mechs[0] is Baseline
	var jobs []sweep.Job
	for _, prof := range profs {
		for _, mech := range mechs {
			jobs = append(jobs, parsecJob(prof, mech, o))
		}
	}
	results := o.engine().Run(context.Background(), jobs)

	var rows []ParsecRow
	for bi, prof := range profs {
		base := results[bi*len(mechs)]
		for mi, mech := range mechs {
			res := results[bi*len(mechs)+mi]
			row := ParsecRow{
				Benchmark: prof.Name,
				Mechanism: mech.String(),
				Err:       res.Err,
			}
			if res.Err == "" {
				out := res.Out
				row.RuntimeCyc = out.RuntimeCyc
				row.StaticPJ = out.StaticPJ
				row.DynamicPJ = out.DynamicPJ
				row.TotalPJ = out.TotalPJ
				switch {
				case base.Err != "":
					row.Err = fmt.Sprintf("baseline reference failed: %s", base.Err)
				case base.Out.StaticPJ <= 0 || base.Out.TotalPJ <= 0 || base.Out.RuntimeCyc == 0:
					row.Err = "baseline reference is degenerate (zero energy or runtime)"
				default:
					row.NormStatic = out.StaticPJ / base.Out.StaticPJ
					row.NormTotal = out.TotalPJ / base.Out.TotalPJ
					row.NormRuntime = float64(out.RuntimeCyc) / float64(base.Out.RuntimeCyc)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Headline aggregates the PARSEC sweep into the paper's abstract claims:
// FLOV (gFLOV) static/total energy reduction versus Baseline and RP, and
// the runtime degradation versus Baseline, averaged across benchmarks.
type Headline struct {
	StaticVsBaselinePct float64 // paper: 43% reduction
	RuntimeVsBasePct    float64 // paper: ~1% degradation
	StaticVsRPPct       float64 // paper: 22% reduction
	TotalVsRPPct        float64 // paper: 18% reduction
	Benchmarks          int
}

// Summarize computes the headline numbers from a ParsecSweep row set.
func Summarize(rows []ParsecRow) Headline {
	type acc struct{ base, rp, gflov ParsecRow }
	byBench := map[string]*acc{}
	for _, r := range rows {
		a := byBench[r.Benchmark]
		if a == nil {
			a = &acc{}
			byBench[r.Benchmark] = a
		}
		switch r.Mechanism {
		case "Baseline":
			a.base = r
		case "RP":
			a.rp = r
		case "gFLOV":
			a.gflov = r
		}
	}
	// Iterate benchmarks in sorted order: float accumulation is not
	// associative, so summing in map order would make the headline
	// numbers differ between runs of the same sweep.
	var names []string
	for name := range byBench {
		names = append(names, name)
	}
	sort.Strings(names)
	var h Headline
	for _, name := range names {
		a := byBench[name]
		if a.base.StaticPJ <= 0 || a.rp.StaticPJ <= 0 || a.gflov.StaticPJ <= 0 {
			continue
		}
		h.Benchmarks++
		h.StaticVsBaselinePct += (1 - a.gflov.StaticPJ/a.base.StaticPJ) * 100
		h.RuntimeVsBasePct += (float64(a.gflov.RuntimeCyc)/float64(a.base.RuntimeCyc) - 1) * 100
		h.StaticVsRPPct += (1 - a.gflov.StaticPJ/a.rp.StaticPJ) * 100
		h.TotalVsRPPct += (1 - a.gflov.TotalPJ/a.rp.TotalPJ) * 100
	}
	if h.Benchmarks > 0 {
		n := float64(h.Benchmarks)
		h.StaticVsBaselinePct /= n
		h.RuntimeVsBasePct /= n
		h.StaticVsRPPct /= n
		h.TotalVsRPPct /= n
	}
	return h
}
