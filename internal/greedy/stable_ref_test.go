package greedy

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sched"
)

// The reference implementations below are bag-LPT and group-bag-LPT as
// they were written with stable sorts over copied items and a per-bag
// key map. The permutation-based versions must return exactly their
// assignments and leave exactly their loads and areas.

func refSortItemsDesc(items []Item) {
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].Size != items[b].Size {
			return items[a].Size > items[b].Size
		}
		return items[a].Key < items[b].Key
	})
}

func refSortedPositions(orig, sorted []Item) []int {
	byKey := make(map[int]int, len(orig))
	for i, it := range orig {
		byKey[it.Key] = i
	}
	pos := make([]int, len(sorted))
	for j, it := range sorted {
		pos[j] = byKey[it.Key]
	}
	return pos
}

func refAssignBagLPT(loads []float64, bags [][]Item) [][]int {
	m := len(loads)
	result := make([][]int, len(bags))
	order := make([]int, m)
	for b, bag := range bags {
		items := append([]Item(nil), bag...)
		refSortItemsDesc(items)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			if loads[order[a]] != loads[order[b]] {
				return loads[order[a]] < loads[order[b]]
			}
			return order[a] < order[b]
		})
		asg := make([]int, len(bag))
		pos := refSortedPositions(bag, items)
		for j, it := range items {
			loads[order[j]] += it.Size
			asg[pos[j]] = order[j]
		}
		result[b] = asg
	}
	return result
}

func refAssignGroupBagLPT(groups []*Group, bags [][]Item) [][]int {
	result := make([][]int, len(bags))
	for b, bag := range bags {
		items := append([]Item(nil), bag...)
		refSortItemsDesc(items)
		order := make([]int, len(groups))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool {
			ax, ay := groups[order[x]].avg(), groups[order[y]].avg()
			if ax != ay {
				return ax < ay
			}
			return order[x] < order[y]
		})
		asg := make([]int, len(bag))
		pos := refSortedPositions(bag, items)
		next := 0
		for _, gi := range order {
			g := groups[gi]
			for t := 0; t < len(g.Machines) && next < len(items); t++ {
				g.Area += items[next].Size
				asg[pos[next]] = gi
				next++
			}
		}
		result[b] = asg
	}
	return result
}

// randomBags draws bags with many size ties (sizes from a small set)
// and unique keys in shuffled order, the callers' contract. Sizes go
// well past 12 elements, where slices.SortFunc stops using a stable
// insertion sort, so a missing tie-break shows.
func randomBags(rng *rand.Rand, maxPerBag int) [][]Item {
	bags := make([][]Item, rng.Intn(6))
	key := 0
	for b := range bags {
		for k := rng.Intn(maxPerBag + 1); k > 0; k-- {
			bags[b] = append(bags[b], Item{Key: key, Size: float64(1 + rng.Intn(3))})
			key++
		}
		rng.Shuffle(len(bags[b]), func(i, j int) { bags[b][i], bags[b][j] = bags[b][j], bags[b][i] })
	}
	return bags
}

func TestAssignBagLPTMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 1000; trial++ {
		m := 1 + rng.Intn(40)
		loads := make([]float64, m)
		for i := range loads {
			loads[i] = float64(rng.Intn(3)) // equal loads force machine ties
		}
		bags := randomBags(rng, m)
		refLoads := append([]float64(nil), loads...)
		want := refAssignBagLPT(refLoads, bags)
		got, err := AssignBagLPT(loads, bags)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(loads, refLoads) {
			t.Fatalf("trial %d: got %v loads %v, reference %v loads %v", trial, got, loads, want, refLoads)
		}
	}
}

func TestAssignGroupBagLPTMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	clone := func(gs []*Group) []*Group {
		out := make([]*Group, len(gs))
		for i, g := range gs {
			c := *g
			out[i] = &c
		}
		return out
	}
	for trial := 0; trial < 1000; trial++ {
		var groups []*Group
		total := 0
		for g := rng.Intn(30) + 1; g > 0; g-- {
			n := 1 + rng.Intn(3)
			groups = append(groups, &Group{Machines: make([]int, n), Area: float64(n * rng.Intn(2))})
			total += n
		}
		bags := randomBags(rng, total)
		refGroups := clone(groups)
		want := refAssignGroupBagLPT(refGroups, bags)
		got, err := AssignGroupBagLPT(groups, bags)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: got %v, reference %v", trial, got, want)
		}
		for i := range groups {
			if groups[i].Area != refGroups[i].Area {
				t.Fatalf("trial %d: group %d area %g, reference %g", trial, i, groups[i].Area, refGroups[i].Area)
			}
		}
	}
}

// refBagLPT is BagLPT as written over JobsByBag, per-bag item copies and
// refAssignBagLPT.
func refBagLPT(in *sched.Instance) []int {
	byBag := in.JobsByBag()
	bagOrder := make([]int, in.NumBags)
	areas := make([]float64, in.NumBags)
	for b := range bagOrder {
		bagOrder[b] = b
		for _, ji := range byBag[b] {
			areas[b] += in.Jobs[ji].Size
		}
	}
	sort.SliceStable(bagOrder, func(a, b int) bool {
		if areas[bagOrder[a]] != areas[bagOrder[b]] {
			return areas[bagOrder[a]] > areas[bagOrder[b]]
		}
		return bagOrder[a] < bagOrder[b]
	})
	var bags [][]Item
	for _, b := range bagOrder {
		var items []Item
		for _, ji := range byBag[b] {
			items = append(items, Item{Key: ji, Size: in.Jobs[ji].Size})
		}
		bags = append(bags, items)
	}
	asg := refAssignBagLPT(make([]float64, in.Machines), bags)
	machine := make([]int, len(in.Jobs))
	for bi, bag := range bags {
		for i, it := range bag {
			machine[it.Key] = asg[bi][i]
		}
	}
	return machine
}

func TestBagLPTMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(20)
		in := sched.NewInstance(m)
		bags := 1 + rng.Intn(30)
		for i := 0; i < rng.Intn(200); i++ {
			b := rng.Intn(bags)
			if in.NumBags > b && len(in.JobsByBag()[b]) == m {
				continue // keep every bag feasible
			}
			in.AddJob(float64(1+rng.Intn(3)), b)
		}
		in.NumBags = bags + rng.Intn(2) // trailing empty bags too
		s, err := BagLPT(in)
		if err != nil {
			t.Fatal(err)
		}
		if want := refBagLPT(in); !reflect.DeepEqual(s.Machine, want) {
			t.Fatalf("trial %d: got %v, reference %v", trial, s.Machine, want)
		}
	}
}
