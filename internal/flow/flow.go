// Package flow implements Dinic's maximum-flow algorithm with integer
// capacities and per-edge flow readout.
//
// The EPTAS uses it to realize Lemma 3 of the paper constructively: the
// dropped medium jobs of non-priority bags are inserted back into a
// schedule by computing an integral maximum flow on a bag-to-machine
// assignment network, which is exactly the integral flow whose existence
// the paper's proof invokes.
package flow

import "fmt"

// Edge is one directed arc of the network.
type Edge struct {
	From, To int
	Cap      int
	flow     int
	rev      int // index of reverse edge in adj[To]
	idx      int // index in edges list
}

// Flow returns the current flow on the edge (after MaxFlow).
func (e *Edge) Flow() int { return e.flow }

// Graph is a flow network. Create with NewGraph, add edges, then call
// MaxFlow once.
type Graph struct {
	n     int
	adj   [][]*Edge
	edges []*Edge
}

// NewGraph returns a network with n nodes labelled 0..n-1.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]*Edge, n)}
}

// AddEdge adds a directed edge with the given capacity and returns its
// handle, which can be queried for flow after MaxFlow.
func (g *Graph) AddEdge(from, to, capacity int) (*Edge, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return nil, fmt.Errorf("flow: edge (%d,%d) outside [0,%d)", from, to, g.n)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("flow: negative capacity %d", capacity)
	}
	fwd := &Edge{From: from, To: to, Cap: capacity}
	bwd := &Edge{From: to, To: from, Cap: 0}
	fwd.rev = len(g.adj[to])
	bwd.rev = len(g.adj[from])
	g.adj[from] = append(g.adj[from], fwd)
	g.adj[to] = append(g.adj[to], bwd)
	fwd.idx = len(g.edges)
	g.edges = append(g.edges, fwd)
	return fwd, nil
}

// MaxFlow computes the maximum s-t flow and returns its value. Edge flows
// are available afterwards via Edge.Flow.
func (g *Graph) MaxFlow(s, t int) (int, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return 0, fmt.Errorf("flow: terminal outside [0,%d)", g.n)
	}
	if s == t {
		return 0, fmt.Errorf("flow: source equals sink")
	}
	total := 0
	level := make([]int, g.n)
	iter := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for g.bfs(s, t, level, &queue) {
		for i := range iter {
			iter[i] = 0
		}
		for {
			f := g.dfs(s, t, int(^uint(0)>>1), level, iter)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total, nil
}

// bfs builds the level graph; returns whether t is reachable.
func (g *Graph) bfs(s, t int, level []int, queue *[]int) bool {
	for i := range level {
		level[i] = -1
	}
	q := (*queue)[:0]
	level[s] = 0
	q = append(q, s)
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, e := range g.adj[u] {
			if e.Cap-e.flow > 0 && level[e.To] < 0 {
				level[e.To] = level[u] + 1
				q = append(q, e.To)
			}
		}
	}
	*queue = q
	return level[t] >= 0
}

// dfs sends a blocking-flow augmenting path.
func (g *Graph) dfs(u, t, f int, level, iter []int) int {
	if u == t {
		return f
	}
	for ; iter[u] < len(g.adj[u]); iter[u]++ {
		e := g.adj[u][iter[u]]
		if e.Cap-e.flow <= 0 || level[e.To] != level[u]+1 {
			continue
		}
		d := g.dfs(e.To, t, min(f, e.Cap-e.flow), level, iter)
		if d > 0 {
			e.flow += d
			g.adj[e.To][e.rev].flow -= d
			return d
		}
	}
	return 0
}

// Edges returns all forward edges in insertion order.
func (g *Graph) Edges() []*Edge { return g.edges }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
