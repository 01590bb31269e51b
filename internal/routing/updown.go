package routing

import (
	"fmt"

	"flov/internal/topology"
)

// Table is a per-node next-hop routing table over a subgraph of powered-on
// routers, as distributed by the Router Parking fabric manager.
type Table struct {
	m    topology.Mesh
	next [][]topology.Direction // next[node][dst]; Local when node==dst; -1 (NumPorts) when unreachable
}

// NoRouteDir marks an unreachable destination in a Table.
const NoRouteDir = topology.NumPorts

// NextHop returns the output direction from node toward dst.
func (t *Table) NextHop(node, dst int) topology.Direction { return t.next[node][dst] }

// HasRoute reports whether node can reach dst through the table.
func (t *Table) HasRoute(node, dst int) bool { return t.next[node][dst] != NoRouteDir }

// upDownState is a BFS state for up*/down* constrained shortest paths.
type upDownState struct {
	node int
	down bool // true once a "down" link has been taken
}

// BuildUpDownTable computes deadlock-free up*/down* next-hop tables over
// the active-router subgraph, rooted at root (the fabric manager's node in
// Router Parking). Links toward the BFS root are "up"; a legal path takes
// zero or more up links followed by zero or more down links, which admits
// no channel-dependency cycle. Among legal paths the table picks shortest
// ones (so detours only appear where parking forces them, matching the
// RP behaviour the paper describes).
func BuildUpDownTable(m topology.Mesh, active []bool, root int) (*Table, error) {
	return BuildUpDownTableLinks(m, active, root, nil)
}

// BuildUpDownTableLinks is BuildUpDownTable restricted to usable links:
// linkOK(u, d) reports whether the physical link from u in direction d may
// carry traffic (nil allows every link). The fault-aware Router Parking
// reconfiguration uses it to route around permanently failed links.
func BuildUpDownTableLinks(m topology.Mesh, active []bool, root int, linkOK func(u int, d topology.Direction) bool) (*Table, error) {
	n := m.N()
	if len(active) != n {
		return nil, fmt.Errorf("routing: active mask has %d entries for %d nodes", len(active), n)
	}
	if !active[root] {
		return nil, fmt.Errorf("routing: up*/down* root %d is not active", root)
	}
	usable := func(u int, d topology.Direction) bool {
		return linkOK == nil || linkOK(u, d)
	}

	// BFS levels from root over the active subgraph define up/down.
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			v := m.Neighbor(u, d)
			if v >= 0 && active[v] && usable(u, d) && level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}

	// isUp reports whether the directed link u->v is an "up" link: toward
	// the root (strictly smaller level, ties broken by smaller node id).
	isUp := func(u, v int) bool {
		if level[v] != level[u] {
			return level[v] < level[u]
		}
		return v < u
	}

	t := &Table{m: m, next: make([][]topology.Direction, n)}
	for i := range t.next {
		t.next[i] = make([]topology.Direction, n)
		for j := range t.next[i] {
			t.next[i][j] = NoRouteDir
		}
	}

	// For each active source, BFS over (node, phase) states. The first-hop
	// direction is propagated along the search so each destination records
	// the first move of one shortest legal path.
	for src := 0; src < n; src++ {
		if !active[src] || level[src] < 0 {
			continue
		}
		t.next[src][src] = topology.Local
		type entry struct {
			st       upDownState
			firstHop topology.Direction
		}
		seen := make(map[upDownState]bool, 2*n)
		start := upDownState{node: src, down: false}
		seen[start] = true
		frontier := []entry{{st: start, firstHop: NoRouteDir}}
		for len(frontier) > 0 {
			var next []entry
			for _, e := range frontier {
				for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
					v := m.Neighbor(e.st.node, d)
					if v < 0 || !active[v] || level[v] < 0 || !usable(e.st.node, d) {
						continue
					}
					up := isUp(e.st.node, v)
					if e.st.down && up {
						continue // down -> up transition is illegal
					}
					st := upDownState{node: v, down: e.st.down || !up}
					if seen[st] {
						continue
					}
					seen[st] = true
					fh := e.firstHop
					if fh == NoRouteDir {
						fh = d
					}
					if t.next[src][v] == NoRouteDir {
						t.next[src][v] = fh
					}
					next = append(next, entry{st: st, firstHop: fh})
				}
			}
			frontier = next
		}
	}
	return t, nil
}

// Connected reports whether all active nodes form one connected component
// under mesh adjacency restricted to active nodes. Vacuously true when
// fewer than two nodes are active.
func Connected(m topology.Mesh, active []bool) bool {
	return ConnectedLinks(m, active, nil)
}

// ConnectedLinks is Connected restricted to usable links: linkOK(u, d)
// reports whether the physical link from u in direction d may carry
// traffic (nil allows every link).
func ConnectedLinks(m topology.Mesh, active []bool, linkOK func(u int, d topology.Direction) bool) bool {
	n := m.N()
	start := -1
	total := 0
	for i := 0; i < n; i++ {
		if active[i] {
			total++
			if start < 0 {
				start = i
			}
		}
	}
	if total <= 1 {
		return true
	}
	seen := make([]bool, n)
	seen[start] = true
	count := 1
	queue := []int{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for d := topology.Direction(0); d < topology.NumLinkDirs; d++ {
			v := m.Neighbor(u, d)
			if v >= 0 && active[v] && !seen[v] && (linkOK == nil || linkOK(u, d)) {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == total
}
