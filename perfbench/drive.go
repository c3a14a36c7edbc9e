package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// clients is the number of concurrent clients and HTTP connections.
const clients = 2

// requestTimeout bounds one request; a timed-out request counts as failed.
const requestTimeout = 60 * time.Second

// service is an in-process server.New with default configuration,
// listening on loopback. When traced, a middleware records the handler
// span of every request that carries a request id.
type service struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startService(spans *serverSpans) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: server.New(server.Config{}), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	var h http.Handler = s.srv.Handler()
	if spans != nil {
		h = spans.wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits until its serve loop has returned.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //nolint:errcheck // best effort; Close below is final
	s.hs.Close()
	<-s.done
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// answer is what must repeat exactly between two solves of one body.
type answer struct {
	makespan uint64
	assign   uint64
}

func answerOf(makespan float64, assignment []int) answer {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range assignment {
		binary.LittleEndian.PutUint64(b[:], uint64(m))
		h.Write(b[:])
	}
	return answer{math.Float64bits(makespan), h.Sum64()}
}

// response holds the fields of a solve or resolve response the
// benchmark reads.
type response struct {
	Makespan   float64 `json:"makespan"`
	LowerBound float64 `json:"lower_bound"`
	Assignment []int   `json:"assignment"`
	FinalGuess float64 `json:"final_guess"`
	Fallback   bool    `json:"fallback"`
	Coalesced  bool    `json:"coalesced"`
	ElapsedUS  int64   `json:"elapsed_us"`
	Quality    struct {
		Rung  string  `json:"rung"`
		Bound float64 `json:"bound"`
	} `json:"quality"`
}

// sample is one completed (or failed) request, with the few response
// fields the metrics need.
type sample struct {
	id         int
	err        error     // transport error, non-200 or failed check
	start      time.Time // send
	end        time.Time // response read
	reqBytes   int
	respBytes  int
	makespan   float64
	lowerBound float64
	elapsedUS  int64
	coalesced  bool
	fallback   bool
	ans        answer
	traced     bool      // sent with a request id
	rep        *replayed // the in-process replay of the body (traced phase)
}

// recorder collects the samples of one phase in completion order, which
// keeps each client's requests in the order it sent them, and holds the
// reference answers of the working-set slots. When replay is set, the
// phase is traced.
type recorder struct {
	mu      sync.Mutex
	samples []*sample
	ids     atomic.Int64
	refs    map[int]answer
	replay  *inproc
}

func newRecorder(refs map[int]answer, replay *inproc) *recorder {
	if refs == nil {
		refs = map[int]answer{}
	}
	return &recorder{refs: refs, replay: replay}
}

// send issues one call and checks the response; it returns the decoded
// response too, nil when the request failed. A traced call carries its
// request id to the server-span middleware.
func (r *recorder) send(cl *http.Client, base string, c *call, traced bool) (*sample, *response) {
	s := &sample{id: int(r.ids.Add(1)) - 1, reqBytes: len(c.body), traced: traced}
	req, err := http.NewRequest(http.MethodPost, base+c.path, bytes.NewReader(c.body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(requestIDHeader, strconv.Itoa(s.id))
	}
	s.start = time.Now()
	resp, err := cl.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", c.path, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	s.end = time.Now()
	s.respBytes = len(body)
	var res *response
	if err == nil {
		res, err = decodeAnswer(body)
	}
	if err == nil {
		s.ans = answerOf(res.Makespan, res.Assignment)
		err = r.check(c, res, s.ans)
	}
	s.err = err
	if err != nil {
		res = nil
	} else {
		s.makespan, s.lowerBound, s.elapsedUS = res.Makespan, res.LowerBound, res.ElapsedUS
		s.coalesced, s.fallback = res.Coalesced, res.Fallback
	}
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
	return s, res
}

// check verifies a response. A working-set slot's answers must all
// equal its first one, which alone needs the full check.
func (r *recorder) check(c *call, res *response, a answer) error {
	if c.slot < 0 {
		return checkAnswer(c, res)
	}
	r.mu.Lock()
	ref, ok := r.refs[c.slot]
	r.mu.Unlock()
	if ok {
		if ref != a {
			return fmt.Errorf("slot %d: answer differs from an earlier solve of the same instance", c.slot)
		}
		return nil
	}
	if err := checkAnswer(c, res); err != nil {
		return err
	}
	r.mu.Lock()
	r.refs[c.slot] = a
	r.mu.Unlock()
	return nil
}

func decodeAnswer(body []byte) (*response, error) {
	var res response
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &res, nil
}

// checkAnswer verifies a response against the instance it schedules:
// every job is placed on a real machine, no bag repeats on a machine
// (bag-constrained requests only), the makespan is the recomputed
// (speed-scaled) maximum load and at least the lower bound, and the
// quality block is set.
func checkAnswer(c *call, r *response) error {
	in := c.inst
	if len(r.Assignment) != len(in.Jobs) {
		return fmt.Errorf("assignment has %d entries for %d jobs", len(r.Assignment), len(in.Jobs))
	}
	loads := make([]float64, in.Machines)
	pairs := make([]int, len(in.Jobs)) // bag*machines + machine
	for i, m := range r.Assignment {
		if m < 0 || m >= in.Machines {
			return fmt.Errorf("job %d on machine %d of %d", i, m, in.Machines)
		}
		pairs[i] = in.Jobs[i].Bag*in.Machines + m
		loads[m] += in.Jobs[i].Size
	}
	if c.bags {
		sort.Ints(pairs)
		for i := 1; i < len(pairs); i++ {
			if pairs[i] == pairs[i-1] {
				return fmt.Errorf("bag %d repeats on machine %d", pairs[i]/in.Machines, pairs[i]%in.Machines)
			}
		}
	}
	var makespan float64
	for m, l := range loads {
		if in.Speeds != nil {
			l /= in.Speeds[m]
		}
		makespan = math.Max(makespan, l)
	}
	if math.Abs(makespan-r.Makespan) > 1e-9*makespan {
		return fmt.Errorf("makespan %v, recomputed %v", r.Makespan, makespan)
	}
	if r.Makespan < r.LowerBound*(1-1e-12) {
		return fmt.Errorf("makespan %v below lower bound %v", r.Makespan, r.LowerBound)
	}
	if r.Quality.Rung == "" || r.Quality.Bound == 0 {
		return errors.New("quality rung or bound missing")
	}
	return nil
}

// closedLoop runs the clients from start until the source runs dry or
// dur has passed; a client sends its next request only after its
// previous one completed. In a traced phase a client replays every
// request in-process as soon as it is answered, so the replay's cache
// sees the traffic the server's does, and traces half of them: a
// seeded coin, tossed after the body is picked, decides which carry a
// request id, so that which are traced does not follow the workload's
// own cycle of shapes. The untraced requests of the phase then see the
// same load and the same machine as the traced ones.
func closedLoop(cl *http.Client, base string, src source, rec *recorder, start time.Time, dur time.Duration) {
	time.Sleep(time.Until(start))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			coin := rand.New(rand.NewSource(int64(c) + 1))
			for time.Since(start) < dur {
				call := src.next(c)
				if call == nil {
					return
				}
				traced := rec.replay != nil && coin.Intn(2) == 1
				s, res := rec.send(cl, base, call, traced)
				if rec.replay != nil && s.err == nil {
					if s.rep, s.err = rec.replay.run(call); s.err != nil {
						s.err = fmt.Errorf("in-process replay: %w", s.err)
					}
				}
				src.answered(c, call, res)
			}
		}(c)
	}
	wg.Wait()
}

// prime solves every call once over HTTP, both clients in parallel, and
// reports every bad answer. It returns the answers by call index.
func prime(cl *http.Client, base string, calls []*call, rec *recorder) ([]*response, error) {
	out := make([]*response, len(calls))
	errs := make([]error, len(calls))
	parallel(len(calls), func(i int) {
		s, res := rec.send(cl, base, calls[i], false)
		out[i], errs[i] = res, s.err
	})
	return out, errors.Join(errs...)
}

// parallel calls fn(0..n-1) in index order from `clients` goroutines and
// returns when all calls have returned.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
