package memo

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func key(i int) Key {
	return Key{Sig: Sig{M: 1, N: int32(i), H0: uint64(i), H1: ^uint64(i)}, Aux: 7}
}

// pay returns an n-byte payload starting with the decimal tag, so
// payload sizes (and with them entry costs) are under test control.
func pay(tag, n int) []byte {
	p := make([]byte, n)
	copy(p, fmt.Sprint(tag))
	return p
}

// tagOf reads back the tag of a pay payload.
func tagOf(p []byte) int {
	n := 0
	for _, b := range p {
		if b < '0' || b > '9' {
			break
		}
		n = 10*n + int(b-'0')
	}
	return n
}

// same reports whether two payloads share their backing array: a hit
// serves the committed bytes, never a copy.
func same(a, b []byte) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// mustDo runs Do and fails the test on error. A nil fn asserts the call
// must be served from cache (the compute path reports a test failure).
func mustDo(t *testing.T, c *Cache, k Key, fn func() ([]byte, error)) ([]byte, bool) {
	t.Helper()
	if fn == nil {
		fn = func() ([]byte, error) {
			t.Errorf("Do(%v) ran the compute function, expected a cache hit", k)
			return pay(999, 1), nil
		}
	}
	v, hit, err := c.Do(context.Background(), k, fn)
	if err != nil {
		t.Fatalf("Do(%v): unexpected error %v", k, err)
	}
	return v, hit
}

func TestDoMissThenHit(t *testing.T) {
	c := New(0)
	calls := 0
	fn := func() ([]byte, error) { calls++; return pay(42, 100), nil }

	v1, hit := mustDo(t, c, key(1), fn)
	if hit {
		t.Fatalf("first Do reported a hit")
	}
	v2, hit := mustDo(t, c, key(1), fn)
	if !hit {
		t.Fatalf("second Do reported a miss")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if !same(v1, v2) || tagOf(v2) != 42 {
		t.Fatalf("hit returned a different payload")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Cost != entryCost(100) {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry / cost %d", st, entryCost(100))
	}
}

// TestNegativeEntryCommitted pins the error-path contract: a rejection
// (non-cancellation error) is cached as a committed negative entry and
// served to later callers without recomputing — it is not deleted. The
// entry keeps the rejection's text, which is what a hit serves.
func TestNegativeEntryCommitted(t *testing.T) {
	c := New(0)
	rejected := errors.New("guess rejected")
	calls := 0
	fn := func() ([]byte, error) { calls++; return nil, rejected }

	_, hit, err := c.Do(context.Background(), key(1), fn)
	if !errors.Is(err, rejected) || hit {
		t.Fatalf("first Do = (%v, hit=%v), want the rejection as a miss", err, hit)
	}
	_, hit, err = c.Do(context.Background(), key(1), fn)
	if err == nil || err.Error() != rejected.Error() {
		t.Fatalf("second Do error = %v, want the cached rejection", err)
	}
	if !hit {
		t.Fatalf("second Do recomputed a committed negative entry")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Negative != 1 || st.Entries != 1 || st.Cost != entryCost(len(rejected.Error())) {
		t.Fatalf("stats = %+v, want exactly one (negative) entry costing its text", st)
	}
}

// TestCancellationNotCached pins the other half of the error-path
// contract: a cancellation outcome is abandoned, so the next caller
// recomputes under its own context.
func TestCancellationNotCached(t *testing.T) {
	c := New(0)
	calls := 0
	_, hit, err := c.Do(context.Background(), key(1), func() ([]byte, error) {
		calls++
		return nil, context.Canceled
	})
	if !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("canceled Do = (%v, hit=%v)", err, hit)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("canceled compute left %d entries", st.Entries)
	}
	v, hit := mustDo(t, c, key(1), func() ([]byte, error) {
		calls++
		return pay(7, 8), nil
	})
	if hit || tagOf(v) != 7 || calls != 2 {
		t.Fatalf("recompute after abandonment: hit=%v v=%v calls=%d", hit, v, calls)
	}
}

func TestEvictionLRU(t *testing.T) {
	// Room for two 40-byte entries plus an empty one, not three 40-byte
	// entries.
	c := New(2*entryCost(40) + entryCost(0))
	put := func(i int) { mustDo(t, c, key(i), func() ([]byte, error) { return pay(i, 40), nil }) }
	put(1)
	put(2)
	// Touch 1 so 2 becomes the LRU victim.
	if _, hit := mustDo(t, c, key(1), nil); !hit {
		t.Fatalf("touching key 1 missed")
	}
	put(3) // three entries exceed the budget: evict 2
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Cost != 2*entryCost(40) {
		t.Fatalf("stats after eviction = %+v, want 1 eviction, 2 entries, cost %d", st, 2*entryCost(40))
	}
	// Re-probe key 2 with an empty payload so the probe itself cannot
	// evict.
	if _, hit := mustDo(t, c, key(2), func() ([]byte, error) { return nil, nil }); hit {
		t.Fatalf("evicted key 2 still hit")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("the empty probe evicted: %+v", st)
	}
	if _, hit := mustDo(t, c, key(1), nil); !hit {
		t.Fatalf("key 1 was evicted, want key 2")
	}
}

// TestEvictionNeverDropsNewest: an entry larger than the whole budget is
// still committed and served; eviction clears everything else instead.
func TestEvictionNeverDropsNewest(t *testing.T) {
	c := New(entryCost(100))
	mustDo(t, c, key(1), func() ([]byte, error) { return pay(1, 60), nil })
	mustDo(t, c, key(2), func() ([]byte, error) { return pay(2, 500), nil })
	st := c.Stats()
	if st.Entries != 1 || st.Cost != entryCost(500) {
		t.Fatalf("stats = %+v, want only the oversized newest entry", st)
	}
	if _, hit := mustDo(t, c, key(2), nil); !hit {
		t.Fatalf("oversized newest entry was evicted by its own insertion")
	}
}

// TestEvictedSlotsReused: a bounded cache under churn recycles the slab
// slots of evicted entries instead of growing the slab.
func TestEvictedSlotsReused(t *testing.T) {
	c := New(4 * entryCost(8))
	for i := 0; i < 1000; i++ {
		mustDo(t, c, key(i), func() ([]byte, error) { return pay(i, 8), nil })
	}
	if st := c.Stats(); st.Entries != 4 || st.Evictions != 996 {
		t.Fatalf("stats = %+v, want 4 entries after 996 evictions", st)
	}
	if c.n > 5 {
		t.Fatalf("slab grew to %d slots for 4 live entries", c.n)
	}
	for i := 996; i < 1000; i++ {
		if v, hit := mustDo(t, c, key(i), nil); !hit || tagOf(v) != i {
			t.Fatalf("key %d: hit=%v tag %d", i, hit, tagOf(v))
		}
	}
}

// TestSlotAddressStable: growing the slab never moves a slot of a full
// chunk, so the cache never holds two copies of its slots. Every slot
// of the first chunk (filled by append) and the first slot of the
// second (allocated whole) keep their address through 100,000 further
// inserts.
func TestSlotAddressStable(t *testing.T) {
	c := New(0)
	for i := 0; i <= chunkSlots; i++ {
		mustDo(t, c, key(i), func() ([]byte, error) { return pay(i, 8), nil })
	}
	addrs := make([]*slot, chunkSlots+1)
	for i := range addrs {
		addrs[i] = c.slot(int32(i))
	}
	for i := chunkSlots + 1; i <= chunkSlots+100000; i++ {
		mustDo(t, c, key(i), func() ([]byte, error) { return pay(i, 8), nil })
	}
	for i, a := range addrs {
		if c.slot(int32(i)) != a {
			t.Fatalf("slot %d moved while the slab grew", i)
		}
	}
	if got := int(c.n); got != chunkSlots+100001 {
		t.Fatalf("slab holds %d slots, want %d", got, chunkSlots+100001)
	}
	for _, i := range []int{0, chunkSlots - 1, chunkSlots, chunkSlots + 100000} {
		if v, hit := mustDo(t, c, key(i), nil); !hit || tagOf(v) != i {
			t.Fatalf("key %d: hit=%v tag %d", i, hit, tagOf(v))
		}
	}
}

// TestPanicAbandonsClaim: a compute that panics must not leave the key
// claimed forever — the claim is abandoned (like a cancellation) before
// the panic propagates, so the next caller recomputes instead of
// wedging on the in-flight wait.
func TestPanicAbandonsClaim(t *testing.T) {
	c := New(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Do")
			}
		}()
		c.Do(context.Background(), key(1), func() ([]byte, error) { panic("solver bug") })
	}()
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("panicked compute left %d entries", st.Entries)
	}
	v, hit := mustDo(t, c, key(1), func() ([]byte, error) { return pay(3, 1), nil })
	if hit || tagOf(v) != 3 {
		t.Fatalf("recompute after panic: hit=%v v=%+v", hit, v)
	}
}

// TestSingleflight hammers one key from many goroutines: the compute
// must run exactly once, and every caller must observe the same payload.
func TestSingleflight(t *testing.T) {
	c := New(0)
	var calls atomic.Int64
	gate := make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	results := make([][]byte, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			v, _, err := c.Do(context.Background(), key(1), func() ([]byte, error) {
				calls.Add(1)
				return pay(99, 1), nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			results[w] = v
		}(w)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", n)
	}
	for w, v := range results {
		if !same(v, results[0]) {
			t.Fatalf("worker %d observed a different payload", w)
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != workers || st.Misses != 1 {
		t.Fatalf("stats = %+v, want %d lookups with exactly 1 miss", st, workers)
	}
}

// TestWaiterReclaimsAbandonedSlot: a waiter blocked on a claimant that
// gets canceled must claim afresh and compute, not observe the
// cancellation.
func TestWaiterReclaimsAbandonedSlot(t *testing.T) {
	c := New(0)
	claimed := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), key(1), func() ([]byte, error) {
			close(claimed)
			<-release
			return nil, context.Canceled
		})
	}()
	<-claimed
	done := make(chan []byte)
	go func() {
		v, _, err := c.Do(context.Background(), key(1), func() ([]byte, error) {
			return pay(5, 1), nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		done <- v
	}()
	close(release)
	if v := <-done; v == nil || tagOf(v) != 5 {
		t.Fatalf("waiter got %v, want recomputed payload 5", v)
	}
}

// TestWaiterContextCancel: a waiter whose own context dies returns its
// ctx error promptly and leaves the in-flight compute untouched.
func TestWaiterContextCancel(t *testing.T) {
	c := New(0)
	claimed := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), key(1), func() ([]byte, error) {
			close(claimed)
			<-release
			return pay(1, 1), nil
		})
	}()
	<-claimed
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, err := c.Do(ctx, key(1), nil)
	if !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("canceled waiter = (%v, hit=%v), want ctx.Canceled miss", err, hit)
	}
	close(release)
	if v, hit := mustDo(t, c, key(1), nil); !hit || tagOf(v) != 1 {
		t.Fatalf("claimant's commit lost after waiter cancellation")
	}
}

// TestConcurrentDistinctKeys exercises the LRU under racing inserts and
// evictions; run with -race.
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New(50 * entryCost(8))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(i % 100)
				v, _, err := c.Do(context.Background(), k, func() ([]byte, error) {
					return binary.LittleEndian.AppendUint64(nil, uint64(i%100)), nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if got := binary.LittleEndian.Uint64(v); got != uint64(i%100) {
					t.Errorf("worker %d: key %d returned payload %d", w, i%100, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Cost > c.MaxCost() {
		t.Fatalf("cost %d exceeds budget %d", st.Cost, st.MaxCost)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions under a tight budget, stats %+v", st)
	}
}

func TestNewClampsNegativeBudget(t *testing.T) {
	if got := New(-5).MaxCost(); got != 0 {
		t.Fatalf("MaxCost = %d, want 0 (unbounded)", got)
	}
}

// TestHitAllocatesNothing: serving a committed positive entry allocates
// nothing inside Do.
func TestHitAllocatesNothing(t *testing.T) {
	c := New(1 << 20)
	fn := func() ([]byte, error) { return pay(1, 64), nil }
	mustDo(t, c, key(1), fn)
	mustDo(t, c, key(2), fn)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, hit, _ := c.Do(ctx, key(1), fn); !hit {
			t.Fatal("miss on a committed key")
		}
		c.Do(ctx, key(2), fn) //nolint:errcheck
	})
	if allocs != 0 {
		t.Fatalf("a hit made %v allocations, want 0", allocs)
	}
}

// TestCommitHeapObjects pins the layout: a committed entry is its
// payload and nothing else the garbage collector has to trace, so
// committing many entries grows the live heap by at most two objects
// per entry (the payload, plus the amortized slab and index growth).
func TestCommitHeapObjects(t *testing.T) {
	const n = 10000
	heapObjects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	c := New(0)
	before := heapObjects()
	for i := 0; i < n; i++ {
		if _, _, err := c.Do(context.Background(), key(i), func() ([]byte, error) { return pay(i, 24), nil }); err != nil {
			t.Fatal(err)
		}
	}
	after := heapObjects()
	runtime.KeepAlive(c)
	if c.Len() != n {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), n)
	}
	t.Logf("live heap objects per committed entry: %.3f", (float64(after)-float64(before))/n)
	if grown := float64(after) - float64(before); grown > 2*n {
		t.Fatalf("committing %d entries grew the live heap by %.0f objects (%.2f per entry), want at most 2 per entry", n, grown, grown/n)
	}
}

func ExampleCache_Do() {
	c := New(1 << 20)
	k := Key{Aux: 1}
	compute := func() ([]byte, error) { return []byte("expensive"), nil }
	v, hit, _ := c.Do(context.Background(), k, compute)
	fmt.Println(string(v), hit)
	v, hit, _ = c.Do(context.Background(), k, compute)
	fmt.Println(string(v), hit)
	// Output:
	// expensive false
	// expensive true
}
