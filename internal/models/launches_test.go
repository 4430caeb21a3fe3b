package models

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"dlrmperf/internal/graph"
	"dlrmperf/internal/kernels"
)

// launches is one Launches pass kept: the nodes in the order yielded
// and a copy of each node's kernels.
type launches struct {
	nodes   []*graph.Node
	kernels [][]kernels.Kernel
}

func collectLaunches(g *graph.Graph) launches {
	var l launches
	for n, ks := range g.Launches() {
		l.nodes = append(l.nodes, n)
		l.kernels = append(l.kernels, slices.Clone(ks))
	}
	return l
}

// sameLaunches fails unless l yields every node of g exactly once, in
// g.Nodes order, each with the kernels NodeKernels gives it.
func sameLaunches(t *testing.T, label string, g *graph.Graph, l launches) {
	t.Helper()
	same := len(l.nodes) == len(g.Nodes)
	for i := 0; same && i < len(l.nodes); i++ {
		same = l.nodes[i] == &g.Nodes[i]
	}
	if !same {
		t.Errorf("%s: Launches yielded %d nodes, not the graph's %d in order", label, len(l.nodes), len(g.Nodes))
		return
	}
	for i, n := range l.nodes {
		if want := g.NodeKernels(n); !slices.Equal(l.kernels[i], want) {
			t.Errorf("%s: node %d (%s) launches %+v, want %+v", label, i, g.Op(n).Name(), l.kernels[i], want)
			return
		}
	}
}

// TestLaunchesMatchNodeKernels holds Graph.Launches, the enumeration
// every walk reads, to NodeKernels for every family, on the built
// structure and on a WithBatch view: node by node, after a pass that
// breaks at its first node, and with goroutines enumerating different
// graphs at once.
func TestLaunchesMatchNodeKernels(t *testing.T) {
	var graphs []*graph.Graph
	var labels []string
	for _, name := range allFamilies {
		m, err := Build(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.Graph.WithBatch(200)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, m.Graph, v)
		labels = append(labels, name+"@64", name+"@200")
	}

	want := make([]launches, len(graphs))
	for i, g := range graphs {
		var first *graph.Node
		var firstKs []kernels.Kernel
		for n, ks := range g.Launches() {
			first, firstKs = n, slices.Clone(ks)
			break
		}
		want[i] = collectLaunches(g)
		sameLaunches(t, labels[i], g, want[i])
		if first != &g.Nodes[0] || !slices.Equal(firstKs, want[i].kernels[0]) {
			t.Errorf("%s: a pass broken at its first node saw %v, want node %d", labels[i], first, g.Nodes[0].ID)
		}
	}

	// Each goroutine enumerates its own graph while the others do.
	var wg sync.WaitGroup
	for i, g := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got := collectLaunches(g)
				if !slices.Equal(got.nodes, want[i].nodes) || !slices.EqualFunc(got.kernels, want[i].kernels, slices.Equal) {
					t.Errorf("%s: a concurrent pass differs from the serial one", labels[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestUnboundStructureLaunches: a stored structure, whose op table
// keeps each comparable op once, bound at two batches lists the same
// launches as a from-scratch build at each, for the families whose
// nodes repeat the most equal ops.
func TestUnboundStructureLaunches(t *testing.T) {
	for _, name := range []string{NameResNet50, NameInceptionV3, NameTransformer} {
		m, err := Build(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		m.Graph.Unbind()
		for _, b := range []int64{64, 200} {
			v, err := m.Graph.WithBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Build(name, b)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s unbound@%d", name, b)
			got := collectLaunches(v)
			sameLaunches(t, label, v, got)
			if !slices.EqualFunc(got.kernels, collectLaunches(want.Graph).kernels, slices.Equal) {
				t.Errorf("%s: launches differ from a build at %d", label, b)
			}
			for i := range v.Nodes {
				if v.Op(&v.Nodes[i]).Name() != want.Graph.Op(&want.Graph.Nodes[i]).Name() {
					t.Errorf("%s: node %d is %s, the build's %s", label, i, v.Op(&v.Nodes[i]).Name(), want.Graph.Op(&want.Graph.Nodes[i]).Name())
					break
				}
			}
		}
	}
}
