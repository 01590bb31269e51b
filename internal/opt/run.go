package opt

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"flov/internal/network"
	"flov/internal/render"
	"flov/internal/sim"
	"flov/internal/sweep"
)

// Stream labels separating the strategy's ask and tell RNG draws; a
// fresh stream is derived per (spec seed, label, generation) so the two
// phases can never alias each other's randomness.
const (
	askLabel  = 0x666c6f762d61736b // "flov-ask"
	tellLabel = 0x666c6f762d746c6c // "flov-tll"
)

// Options configures a Run's execution environment (everything that is
// not part of the search identity: worker count, caching, progress).
// None of it may change the front a spec produces.
type Options struct {
	// Workers is the sweep.Engine pool size (<= 0 means GOMAXPROCS).
	Workers int
	// Cache, when non-nil, memoizes candidate results on disk as each
	// evaluation completes. It is also how an interrupted search resumes:
	// re-running the spec against the same cache replays the
	// deterministic loop and simulates only the candidates never
	// finished. Job hashes do not depend on the objective list, so cached
	// rows re-score under changed objectives.
	Cache *sweep.Cache
	// WarmStart enables snapshot forking for candidates sharing a
	// warmup prefix (needs Cache).
	WarmStart bool
	// Progress, when non-nil, receives one Event per finished
	// generation.
	Progress func(Event)
}

// Event summarizes one finished generation.
type Event struct {
	// Gen is the zero-based generation index; Generations the total.
	Gen         int `json:"gen"`
	Generations int `json:"generations"`
	// Asked is the number of candidates the strategy proposed.
	Asked int `json:"asked"`
	// Simulated counts candidates that went through the engine
	// (including disk-cache hits); Reused counts candidates answered
	// without the engine: genomes memoized from an earlier generation
	// and duplicates within this one.
	Simulated int `json:"simulated"`
	Reused    int `json:"reused"`
	// CacheHits counts engine evaluations served from the disk cache.
	CacheHits int `json:"cache_hits"`
	// Infeasible counts failed evaluations (penalty-scored).
	Infeasible int `json:"infeasible"`
	// Front is the archive size after absorbing the generation.
	Front int `json:"front"`
}

// Outcome is a finished run: the Pareto front plus evaluation
// accounting.
type Outcome struct {
	Objectives []Objective `json:"objectives"`
	Strategy   string      `json:"strategy"`
	Seed       uint64      `json:"seed"`
	// SpaceSize is the full grid cardinality the search sampled from.
	SpaceSize int `json:"space_size"`
	// Generations actually completed (less than the spec's count only
	// on cancellation).
	Generations int `json:"generations"`
	Asked       int `json:"asked"`
	Simulated   int `json:"simulated"`
	// Reused counts memo and in-generation duplicate answers, as in
	// Event; disk-cache hits count under Simulated and CacheHits.
	Reused     int `json:"reused"`
	CacheHits  int `json:"cache_hits"`
	Infeasible int `json:"infeasible"`
	// Front is the final non-dominated set in canonical order.
	Front []Point `json:"front"`
}

// eval is one candidate's evaluation outcome.
type eval struct {
	scores   []float64
	feasible bool
	hash     string
	res      network.Results
	err      string
}

// run holds the per-run search state. Its propose and absorb methods
// are the deterministic halves of a generation — everything except the
// engine call — and are registered as flovlint reach roots: nothing
// reachable from them may touch wall-clock time, math/rand or
// order-sensitive map iteration.
type run struct {
	spec    Spec
	sp      space
	objs    []Objective
	strat   Strategy
	archive Archive
	// memo reuses scores for genomes re-proposed in later generations
	// without re-hashing or re-running them.
	memo map[string]eval
}

// propose derives the generation's ask stream and collects the
// strategy's candidates, clamped into the space (a strategy bug must
// not panic the decoder).
func (r *run) propose(gen int) [][]int {
	rng := sim.NewRNG(sim.DeriveSeed(r.spec.Seed, r.spec.Seed, askLabel, gen))
	genomes := r.strat.Ask(rng, gen, r.spec.Population)
	sizes := r.sp.sizes()
	for _, g := range genomes {
		for i := range g {
			if i >= len(sizes) {
				break
			}
			if g[i] < 0 {
				g[i] = 0
			}
			if g[i] >= sizes[i] {
				g[i] = sizes[i] - 1
			}
		}
	}
	return genomes
}

// absorb archives the generation's feasible points and feeds the scores
// back to the strategy under the tell stream.
func (r *run) absorb(gen int, genomes [][]int, evals []eval) {
	scores := make([][]float64, len(genomes))
	for i, e := range evals {
		scores[i] = e.scores
		if e.feasible {
			r.archive.Add(Point{
				Gen:    gen,
				Genome: genomes[i],
				Hash:   e.hash,
				Scores: e.scores,
				Job:    r.sp.job(r.spec, genomes[i]),
				Res:    e.res,
			})
		}
	}
	rng := sim.NewRNG(sim.DeriveSeed(r.spec.Seed, r.spec.Seed, tellLabel, gen))
	r.strat.Tell(rng, gen, genomes, scores)
}

// score converts an engine result into an eval.
func (r *run) score(j sweep.Job, res sweep.Result) eval {
	e := eval{hash: j.Hash()}
	if res.Err != "" {
		e.err = res.Err
		e.scores = penaltyScores(len(r.objs))
		return e
	}
	e.feasible = true
	e.res = res.Res
	e.scores = make([]float64, len(r.objs))
	for i, o := range r.objs {
		e.scores[i] = o.value(j, res.Res)
	}
	return e
}

func penaltyScores(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = infeasible
	}
	return s
}

// genomeKey renders a genome as a stable map key.
func genomeKey(g []int) string {
	var b strings.Builder
	for i, v := range g {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Run executes the optimizer: Generations rounds of propose → evaluate
// (through sweep.Engine) → absorb. The returned Outcome is a pure
// function of the spec; Options only change where results come from
// (simulation or cache) and how fast. On context cancellation the
// partial outcome so far is returned together with the context error.
func Run(ctx context.Context, spec Spec, opts Options) (Outcome, error) {
	spec = spec.withDefaults()
	sp, err := spec.Space.resolve()
	if err != nil {
		return Outcome{}, err
	}
	objs, err := parseObjectives(spec.Objectives)
	if err != nil {
		return Outcome{}, err
	}
	strat, err := NewStrategy(spec.Strategy, sp.sizes())
	if err != nil {
		return Outcome{}, err
	}

	engine := &sweep.Engine{Workers: opts.Workers, Cache: opts.Cache, WarmStart: opts.WarmStart}
	r := &run{spec: spec, sp: sp, objs: objs, strat: strat, memo: map[string]eval{}}
	out := Outcome{
		Objectives: objs,
		Strategy:   strat.Name(),
		Seed:       spec.Seed,
		SpaceSize:  sp.points(),
	}

	for gen := 0; gen < spec.Generations; gen++ {
		if ctx.Err() != nil {
			out.Front = r.archive.Front()
			return out, ctx.Err()
		}
		genomes := r.propose(gen)
		ev := Event{Gen: gen, Generations: spec.Generations, Asked: len(genomes)}

		evals := make([]eval, len(genomes))
		// firstAt maps a genome key proposed earlier in this generation
		// to its index, so duplicates evaluate once.
		firstAt := map[string]int{}
		var pending []sweep.Job
		var pendingIdx []int
		var dupIdx [][2]int // [duplicate index, original index]
		for i, g := range genomes {
			key := genomeKey(g)
			if e, ok := r.memo[key]; ok {
				evals[i] = e
				ev.Reused++
				continue
			}
			if j, ok := firstAt[key]; ok {
				dupIdx = append(dupIdx, [2]int{i, j})
				continue
			}
			firstAt[key] = i
			pending = append(pending, sp.job(spec, g))
			pendingIdx = append(pendingIdx, i)
		}

		results := engine.Run(ctx, pending)
		if ctx.Err() != nil {
			out.Front = r.archive.Front()
			return out, ctx.Err()
		}
		for k, idx := range pendingIdx {
			res := results[k]
			e := r.score(res.Job, res)
			evals[idx] = e
			r.memo[genomeKey(genomes[idx])] = e
			ev.Simulated++
			if res.CacheHit {
				ev.CacheHits++
			}
			if !e.feasible {
				ev.Infeasible++
			}
		}
		for _, d := range dupIdx {
			evals[d[0]] = evals[d[1]]
			ev.Reused++
		}

		r.absorb(gen, genomes, evals)
		out.Generations = gen + 1
		out.Asked += ev.Asked
		out.Simulated += ev.Simulated
		out.Reused += ev.Reused
		out.CacheHits += ev.CacheHits
		out.Infeasible += ev.Infeasible
		ev.Front = r.archive.Len()
		if opts.Progress != nil {
			opts.Progress(ev)
		}
	}
	out.Front = r.archive.Front()
	return out, nil
}

// FrontCSV renders the front as CSV: one row per point, the decoded
// design parameters first, then the objective scores. Floats print
// shortest-form, so equal fronts render byte-identically.
func (o Outcome) FrontCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("gen,width,height,vcs,buffers,mechanism,wakeup,gated_frac,rate,pattern")
	for _, obj := range o.Objectives {
		b.WriteByte(',')
		b.WriteString(obj.String())
	}
	b.WriteByte('\n')
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, p := range o.Front {
		j := p.Job
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%s,%d,%s,%s,%s",
			p.Gen, j.Config.Width, j.Config.Height, j.Config.VCsPerVNet,
			j.Config.BufferDepth, j.Mechanism, j.Config.WakeupLatency,
			f(j.Frac), f(j.Rate), j.Pattern)
		for _, s := range p.Scores {
			b.WriteByte(',')
			b.WriteString(f(s))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FrontJSON renders the full outcome (front with jobs and results
// included) as indented JSON.
func (o Outcome) FrontJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(o)
}

// FrontPlot renders the front as an ASCII scatter of the first two
// objectives (x: objective 0, y: objective 1; both minimize, so the
// front hugs the lower-left corner).
func (o Outcome) FrontPlot(w, h int) string {
	pts := make([]render.XY, 0, len(o.Front))
	for _, p := range o.Front {
		pts = append(pts, render.XY{X: p.Scores[0], Y: p.Scores[1]})
	}
	plot := render.Scatter(w, h, []render.Series{{Glyph: '*', Pts: pts}})
	return fmt.Sprintf("front (%d points)  x: %s  y: %s\n%s",
		len(o.Front), o.Objectives[0], o.Objectives[1], plot)
}
