package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// PurityAnalyzer proves that declared pure roots — by default the
// gated-router branch of the cycle kernel — reach no mutation outside
// an allowlisted state set. This is the machine-checked precondition
// for gated-router cycle skipping (ROADMAP item 2): skipping a gated
// router's per-cycle work is only sound if that work provably touches
// nothing but the router's own FLOV latch/wake FSM state, which the
// flovdebug CheckInvariants build can only spot-check dynamically.
//
// The proof walks the call graph from each root, consuming the
// mutation-summary engine (mutation.go): direct writes are reported at
// their own positions, parameter-mediated writes at the call site that
// binds the argument, both with the full call chain from the root.
// Declared boundary functions — the wake-event transitions that
// legitimately end quiescence — stop the walk: work behind
// startWakeup/commitActive/abortWakeup happens exactly because the
// router is leaving the gated state.
//
// Escapes: a `//flovpure:assume <reason>` comment on (or above) the
// offending line suppresses the finding; the reason is mandatory. Roots
// and boundaries that no longer resolve fail loudly, like reach and
// hotalloc, so the proof cannot rot into a silent no-op.
var PurityAnalyzer = &ModuleAnalyzer{
	Name: "purity",
	Doc:  "prove the gated-router cycle branch mutates only allowlisted FLOV latch/wake state",
	Run:  runPurity,
}

// assumeMarker is the purity escape comment prefix (the space matters:
// the mandatory reason follows it).
const assumeMarker = "//flovpure:assume"

// DefaultPurityRoots returns the gated-router branch of the cycle
// kernel: the per-cycle entry points a sleeping or waking FLOV router
// runs instead of the full pipeline tick.
func DefaultPurityRoots() []RootSpec {
	return []RootSpec{
		{Pkg: "flov/internal/core", Recv: "flovRouter", Func: "tickSleep"},
		{Pkg: "flov/internal/core", Recv: "flovRouter", Func: "tickWakeup"},
	}
}

// DefaultPurityBoundaries returns the wake-event transition functions
// the walk stops at: they run exactly when the router leaves the gated
// state, so their mutations are outside the quiescence obligation.
func DefaultPurityBoundaries() []RootSpec {
	return []RootSpec{
		{Pkg: "flov/internal/core", Recv: "flovRouter", Func: "startWakeup"},
		{Pkg: "flov/internal/core", Recv: "flovRouter", Func: "commitActive"},
		{Pkg: "flov/internal/core", Recv: "flovRouter", Func: "abortWakeup"},
	}
}

// DefaultPurityAllow returns the state a quiescent FLOV router may
// touch: its own latch/wake FSM fields, the delay-queue internals every
// port operation goes through, the wake calendar's bitsets, the power
// ledger's dynamic-energy accumulators (latch traversals and handshakes
// are real energy), and the per-packet hop counters a latched flit
// carries with it.
func DefaultPurityAllow() []string {
	return []string{
		"flov/internal/core.flovRouter.*",
		"flov/internal/sim.Delay.*",
		// Filing a consumer is part of pushing onto a link, which the
		// Delay entry already allows; the calendar is derived state and
		// never captured in snapshots.
		"flov/internal/sim.Calendar.due",
		"flov/internal/power.Ledger.dynPJ",
		"flov/internal/noc.Packet.LinkHops",
		"flov/internal/noc.Packet.FLOVHops",
	}
}

func runPurity(p *ModulePass) {
	m := p.Module
	roots := m.PureRoots
	if roots == nil {
		roots = DefaultPurityRoots()
	}
	allow := m.PureAllow
	if allow == nil {
		allow = DefaultPurityAllow()
	}
	bounds := m.PureBoundaries
	if bounds == nil {
		bounds = DefaultPurityBoundaries()
	}
	graph := m.Graph()

	loaded := make(map[string]*Package, len(m.Packages))
	for _, pkg := range m.Packages {
		loaded[pkg.Path] = pkg
	}

	type rootStart struct {
		spec RootSpec
		node *FuncNode
	}
	var starts []rootStart
	for _, root := range roots {
		node := findRoot(graph, root)
		if node == nil {
			// Same contract as reach/hotalloc: a root in a loaded package
			// that no longer resolves is rot in the root list — fail
			// loudly rather than silently proving nothing. Roots of
			// packages outside this run's load set are skipped.
			if pkg, ok := loaded[root.Pkg]; ok {
				p.Reportf(pkg.Files[0].Package, "purity root %s not found; update the root list", root)
			}
			continue
		}
		starts = append(starts, rootStart{root, node})
	}
	if len(starts) == 0 {
		return
	}

	boundary := make(map[*FuncNode]bool)
	for _, bs := range bounds {
		node := findRoot(graph, bs)
		if node == nil {
			if pkg, ok := loaded[bs.Pkg]; ok {
				p.Reportf(pkg.Files[0].Package, "purity boundary %s not found; update the boundary list", bs)
			}
			continue
		}
		boundary[node] = true
	}

	sums := NewSummaries(m, boundary)
	assumes := collectMarkerComments(m, assumeMarker)
	allowed := func(loc Loc) bool {
		key := loc.Key()
		for _, a := range allow {
			if a == key {
				return true
			}
			if strings.HasSuffix(a, ".*") && strings.HasPrefix(key, a[:len(a)-1]) {
				return true
			}
		}
		return false
	}

	// Dedup across roots and assumes: one finding per (position, loc),
	// one reasonless-assume finding per marker.
	reported := make(map[string]bool)
	badAssume := make(map[token.Pos]bool)
	report := func(pos token.Pos, loc Loc, format string, args ...any) {
		if a, ok := skipAt(m.Fset, assumes, pos); ok {
			if a.reason == "" && !badAssume[a.pos] {
				badAssume[a.pos] = true
				p.Reportf(a.pos, "%s needs a reason", assumeMarker)
			}
			return
		}
		key := posKey(m.Fset, pos) + "\x00" + loc.Key()
		if reported[key] {
			return
		}
		reported[key] = true
		p.Reportf(pos, format, args...)
	}

	for _, st := range starts {
		walkPurity(p, sums, st.node, st.spec, boundary, allowed, report)
	}
}

// walkPurity BFS-walks the graph from one pure root, reporting every
// non-allowlisted mutation with its call chain.
func walkPurity(p *ModulePass, sums *Summaries, start *FuncNode, root RootSpec,
	boundary map[*FuncNode]bool, allowed func(Loc) bool,
	report func(token.Pos, Loc, string, ...any)) {

	parent := make(map[*FuncNode]*FuncNode)
	visited := map[*FuncNode]bool{start: true}
	queue := []*FuncNode{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		fx := sums.effects(n)
		chain := chainString(parent, start, n)

		if fx != nil {
			for _, w := range fx.writes {
				if allowed(w.loc) {
					continue
				}
				report(w.pos, w.loc, "impure %s reachable from pure root %s: %s",
					describeLoc(w.loc), root, chain)
			}
		}

		if n == start {
			// Writes through the root's own parameters escape to its
			// caller — nothing above the root can vouch for them.
			if sum := sums.Of(n); sum != nil {
				for _, pos := range sortedIntKeys(sum.ParamWrites) {
					report(pos, Loc{Kind: LocDeref, Desc: "parameter write"},
						"pure root %s writes through one of its parameters: %s", root, chain)
				}
				for _, pos := range sortedIntKeys(sum.CallsParam) {
					report(pos, Loc{Kind: LocDynamic, Desc: "parameter call"},
						"pure root %s calls a function passed in by its caller: %s", root, chain)
				}
			}
		}

		for _, e := range n.Callees {
			if boundary[e.Callee] {
				continue
			}
			if fx.coldAt(e.Pos) {
				continue
			}
			for _, eff := range sums.substEdge(n, e) {
				if eff.param >= 0 || eff.callsParam >= 0 {
					// Escalates to one of n's own parameters: resolved
					// where n's callers bind their arguments (every edge
					// into n is substituted too), or at the root check.
					continue
				}
				if allowed(eff.loc) {
					continue
				}
				report(e.Pos, eff.loc, "impure %s reachable from pure root %s: %s -> %s",
					describeLoc(eff.loc), root, chain, funcDisplay(e.Callee.Fn))
			}
			if !visited[e.Callee] {
				visited[e.Callee] = true
				parent[e.Callee] = n
				queue = append(queue, e.Callee)
			}
		}
	}
}

// describeLoc phrases a Loc for a finding message.
func describeLoc(loc Loc) string {
	switch loc.Kind {
	case LocField, LocGlobal:
		return "write to " + loc.String()
	default:
		return loc.Desc
	}
}

// sortedIntKeys returns the map's values ordered by key, so findings
// derived from parameter indices are deterministic.
func sortedIntKeys(m map[int]token.Pos) []token.Pos {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]token.Pos, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// collectMarkerComments indexes marker comments (//flovpure:assume,
// //flovsnap:skip) by file and line; like //flovlint:allow, a marker
// covers its own line (trailing comment) and the line below (comment
// above the statement). The text after the marker, cut at any nested
// "//", is the reason.
func collectMarkerComments(m *Module, marker string) map[string]map[int]skipEntry {
	out := make(map[string]map[int]skipEntry)
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, marker)
					if idx < 0 {
						continue
					}
					rest := c.Text[idx+len(marker):]
					// Require a clean token boundary, so a longer marker
					// sharing this one as a prefix is not misread as it.
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue
					}
					if cut := strings.Index(rest, "//"); cut >= 0 {
						rest = rest[:cut]
					}
					pos := m.Fset.Position(c.Pos())
					byLine := out[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]skipEntry)
						out[pos.Filename] = byLine
					}
					e := skipEntry{reason: strings.TrimSpace(rest), pos: c.Pos()}
					byLine[pos.Line] = e
					byLine[pos.Line+1] = e
				}
			}
		}
	}
	return out
}
