package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/workload"
)

// eps is the accuracy every request asks for; all other knobs stay at
// the server defaults.
const eps = 0.5

// scale sizes a run. The benchmark uses defaultScale; the smoke test
// shrinks it.
type scale struct {
	setups   int     // setup repetitions behind setup_s
	coldRate float64 // cold-solve instances built in setup per second of run
	warmSet  int     // warm-zipf working-set size
	streams  int     // churn-resolve streams (half resize-only, half structural)
	steps    int     // churn-resolve steps per stream per second of run
}

var defaultScale = scale{
	setups:   5,
	coldRate: 5000,
	warmSet:  48,
	streams:  256,
	steps:    10,
}

// A call is one request of a run: its endpoint and body, the instance
// its answer must schedule, whether bag constraints apply to it, and the
// working-set slot whose answers must repeat exactly (-1 when the body
// is unique).
type call struct {
	path string
	body []byte
	inst *sched.Instance // post-delta instance for resolves
	bags bool
	slot int
}

// A source hands each closed-loop client its next call and learns the
// answer, so stateful workloads can build the next body from it.
type source interface {
	next(client int) *call
	answered(client int, c *call, res *response)
}

// A corpus is one workload's generated input for one seed.
type corpus struct {
	prime []*call // solved during setup (warm working set, churn bases)
	// newSource starts a fresh pass over the timed traffic.
	newSource func() source
	// offHeap is the size of what the corpus holds outside the heap,
	// and free, when set, releases it.
	offHeap int
	free    func()
}

// workloadDef names a workload and its corpus generator. BENCHMARK.json
// and README.md say why each exists.
type workloadDef struct {
	name string
	gen  func(seed int64, seconds float64, sc scale) (*corpus, error)
}

var workloads = []workloadDef{
	{"cold-solve", genCold},
	{"warm-zipf", genWarm},
	{"churn-resolve", genChurn},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// problemFamily maps a generator family to the problem family its
// instances are solved as.
func problemFamily(f workload.Family) string {
	for _, r := range workload.RelatedFamilies() {
		if f == r {
			return "related"
		}
	}
	return "bags"
}

// solveBody and resolveBody are the request documents: the instance
// (and for resolves the delta and the prior answer), eps and family, and
// nothing else.
type solveBody struct {
	Instance *sched.Instance `json:"instance"`
	Eps      float64         `json:"eps"`
	Family   string          `json:"family"`
}

type resolveBody struct {
	Instance        *sched.Instance `json:"instance"`
	Delta           sched.Delta     `json:"delta"`
	PriorMakespan   float64         `json:"prior_makespan"`
	PriorGuess      float64         `json:"prior_guess,omitempty"`
	PriorAssignment []int           `json:"prior_assignment"`
	Eps             float64         `json:"eps"`
	Family          string          `json:"family"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated instances and deltas always encode
	}
	return b
}

func solveCall(in *sched.Instance, fam string, slot int) *call {
	body := mustJSON(solveBody{Instance: in, Eps: eps, Family: fam})
	return &call{path: "/v1/solve", body: body, inst: in, bags: fam == "bags", slot: slot}
}

// coldFamilies, machine counts and bag densities are cycled in a fixed
// order, so every seed sends the same mix of instance shapes; the seed
// draws the job sizes and bag memberships.
var coldFamilies = []workload.Family{
	workload.Uniform, workload.Bimodal, workload.Geometric, workload.Adversarial,
	workload.SmallHeavy, workload.Skewed,
	workload.RelatedFew, workload.RelatedSkew,
}

// genCold builds the first coldRate·seconds instances of the cold
// corpus, about what a run sends, into an arena, so that building them
// costs no CPU time in the timed phase and holding them no heap;
// coldSource builds any further ones when a client asks for them, so a
// run never runs out of distinct instances.
func genCold(seed int64, seconds float64, sc scale) (*corpus, error) {
	a := &arena{}
	for i := 0; i < int(sc.coldRate*seconds); i++ {
		if err := a.add(coldCall(seed, i)); err != nil {
			a.free()
			return nil, err
		}
	}
	return &corpus{offHeap: a.size, free: a.free, newSource: func() source { return &coldSource{seed: seed, pre: a} }}, nil
}

// coldSource hands out instance 0, 1, 2, ... of the cold corpus.
type coldSource struct {
	seed int64
	pre  *arena
	n    atomic.Int64
}

func (s *coldSource) next(int) *call {
	i := int(s.n.Add(1) - 1)
	if i < s.pre.len() {
		return s.pre.get(i)
	}
	return coldCall(s.seed, i)
}

// coldCall builds instance i of the cold corpus, m 4–6 and n = 2·m.
// Its family, machine and bag counts follow from i; its job sizes and
// bag memberships from the seed and i. With m up to 8, one instance in
// a thousand (uniform and bimodal ones above all) took 0.1–2.4 s and
// those few held a quarter to a third of a run's solve time, so a run's
// throughput depended on how many of them its seed drew (see the
// README).
func coldCall(seed int64, i int) *call {
	nf := len(coldFamilies)
	f := coldFamilies[i%nf]
	m := 4 + (i/nf)%3
	jobs := 2 * m
	bags := jobs / (1 + (i/(3*nf))%4)
	in, err := workload.Generate(workload.Spec{Family: f, Machines: m, Jobs: jobs, Bags: bags, Seed: mix(seed, i)})
	if err != nil {
		panic(err) // every shape of the cycle is feasible
	}
	return solveCall(in, problemFamily(f), -1)
}

func (s *coldSource) answered(int, *call, *response) {}

// mix derives the generator seed of instance i from the workload seed
// (the splitmix64 finalizer), so any instance can be built on its own.
func mix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// warmFamilies make up the warm working set: at n >= 80 their cold
// solves stay within tens of milliseconds, so priming is quick.
var warmFamilies = []workload.Family{
	workload.Geometric, workload.Adversarial, workload.RelatedFew, workload.RelatedSkew,
}

// genWarm builds the working set (m 8–32, n 80–256), which setup
// primes, and the Zipf(1.1) draws over it, sent in a closed loop. Zipf
// rank r is slot r; a slot's family, machine, job and bag counts are
// fixed, so every seed offers the same load shape, while job sizes, bag
// memberships and the draws come from the seed.
func genWarm(seed int64, _ float64, sc scale) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(0))
	order := shape.Perm(sc.warmSet)
	set := make([]*call, sc.warmSet)
	for i := range set {
		f := warmFamilies[i%len(warmFamilies)]
		m := 8 + shape.Intn(25)
		jobs := 80 + 176*order[i]/max(sc.warmSet-1, 1)
		bags := jobs / (1 + shape.Intn(4))
		in, err := workload.Generate(workload.Spec{Family: f, Machines: m, Jobs: jobs, Bags: bags, Seed: rng.Int63()})
		if err != nil {
			return nil, err
		}
		set[i] = solveCall(in, problemFamily(f), i)
	}
	draws := rng.Int63()
	return &corpus{prime: set, newSource: func() source {
		return &zipfSource{set: set, zipf: rand.NewZipf(rand.New(rand.NewSource(draws)), 1.1, 1, uint64(len(set)-1))}
	}}, nil
}

// zipfSource draws working-set slots for all clients from one seeded
// sequence.
type zipfSource struct {
	mu   sync.Mutex
	set  []*call
	zipf *rand.Zipf
}

func (s *zipfSource) next(int) *call {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.set[s.zipf.Uint64()]
}

func (s *zipfSource) answered(int, *call, *response) {}

// churnFamilies are the streams' base families, cycled so that even
// streams are resize-only and odd ones structural. Their re-solves stay
// within milliseconds; resizes of the other bag families at these sizes
// now and then run the MILP into its 2 s wall-clock backstop.
var churnFamilies = []workload.Family{workload.Adversarial, workload.RelatedFew, workload.RelatedSkew, workload.RelatedFew}

// genChurn builds the streams (m 8–16, n 80–160): half resize-only (8%
// of jobs per step, ±2% jitter), half structural (a third of the jobs
// per step, plus bag moves and machine changes). A stream's family and
// size are fixed by its index; the seed draws the base instance's
// contents and the churn. Base instances are solved in setup.
func genChurn(seed int64, seconds float64, sc scale) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(0))
	steps := int(float64(sc.steps)*seconds) + 1
	traces := make([]*sched.Trace, sc.streams)
	fams := make([]string, sc.streams)
	prime := make([]*call, sc.streams)
	for i := range traces {
		f := churnFamilies[i%len(churnFamilies)]
		m := 8 + shape.Intn(9)
		jobs := 80 + shape.Intn(81)
		spec := workload.ChurnSpec{
			Base:  workload.Spec{Family: f, Machines: m, Jobs: jobs, Bags: jobs / 2, Seed: rng.Int63()},
			Steps: steps,
			Seed:  rng.Int63(),
		}
		if i%2 == 0 {
			spec.Frac, spec.Jitter = 0.08, 0.02
		} else {
			spec.Frac, spec.Structural = 0.33, true
		}
		tr, err := workload.GenerateChurn(spec)
		if err != nil {
			return nil, err
		}
		traces[i], fams[i] = tr, problemFamily(f)
		prime[i] = solveCall(tr.Base, fams[i], i)
	}
	return &corpus{prime: prime, newSource: func() source { return newChurnSource(traces, fams) }}, nil
}

// stream is one churn trace being replayed: the current (pre-delta)
// instance and the prior answer the next request carries.
type stream struct {
	tr    *sched.Trace
	fam   string
	step  int
	cur   *sched.Instance
	prior *response
}

// churnSource gives client c the streams c, c+2, c+4, ... and
// round-robins over them; with two clients, one replays the resize-only
// streams and the other the structural ones. Each client touches only
// its own streams, so no locking is needed.
type churnSource struct {
	streams []*stream
	turn    []int // per client: round-robin position over its own streams
}

func newChurnSource(traces []*sched.Trace, fams []string) *churnSource {
	s := &churnSource{turn: make([]int, clients)}
	for i, tr := range traces {
		s.streams = append(s.streams, &stream{tr: tr, fam: fams[i], cur: tr.Base})
	}
	return s
}

// setPrior records the base solve's answer for stream i.
func (s *churnSource) setPrior(i int, res *response) { s.streams[i].prior = res }

func (s *churnSource) mine(client int) []*stream {
	var own []*stream
	for i := client; i < len(s.streams); i += clients {
		own = append(own, s.streams[i])
	}
	return own
}

func (s *churnSource) next(client int) *call {
	own := s.mine(client)
	for range own {
		st := own[s.turn[client]%len(own)]
		s.turn[client]++
		if st.step >= len(st.tr.Steps) || st.prior == nil {
			continue
		}
		d := st.tr.Steps[st.step]
		post, _, err := d.Apply(st.cur)
		if err != nil {
			panic(err) // GenerateChurn validated every prefix
		}
		body := mustJSON(resolveBody{
			Instance:        st.cur,
			Delta:           d,
			PriorMakespan:   st.prior.Makespan,
			PriorGuess:      st.prior.FinalGuess,
			PriorAssignment: st.prior.Assignment,
			Eps:             eps,
			Family:          st.fam,
		})
		st.cur, st.step = post, st.step+1
		return &call{path: "/v1/resolve", body: body, inst: post, bags: st.fam == "bags", slot: -1}
	}
	return nil
}

// answered records the answer as the stream's new prior. A failed
// request (res == nil) ends its stream: the next body would carry a
// prior that does not match its instance.
func (s *churnSource) answered(client int, c *call, res *response) {
	for _, st := range s.mine(client) {
		if st.cur == c.inst {
			st.prior = res
			return
		}
	}
}
