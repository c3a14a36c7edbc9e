// Package memo is a concurrency-safe, bounded, cost-aware result cache
// with in-flight deduplication — the serving-layer generalization of the
// per-solve guess memo that used to live inside the pipeline engine.
//
// A Cache maps fixed-size Keys to committed outcomes. An outcome is
// either positive (a payload: the caller's encoding of a value) or
// negative (a non-cancellation error); both are cached, because for the
// EPTAS guess pipeline a rejection is as deterministic — and as
// expensive to recompute — as an acceptance. Only a context
// cancellation is never cached: it describes the caller's impatience,
// not the key. Every other outcome is committed, so callers must compute
// outcomes that are a function of the key alone.
//
// # Layout
//
// A committed entry is its key, its payload bytes and two int32 links in
// a slab of slots, found through a map from key to slot number. Past
// its first 4,096 slots the slab grows by whole chunks of 4,096 and
// never copies the slots it holds (see Cache.chunks). The payload is
// the only pointer an entry holds (a negative entry's payload is its
// error text), so each entry is one small heap object for the garbage
// collector to mark, and the payload is exactly what a snapshot writes
// (see Export): memory and snapshots share one format. In-flight claims
// live in a separate map and are the only state with a channel.
//
// # Singleflight
//
// Do deduplicates concurrent computations of one key: the first caller
// claims the key and runs the compute function, every later caller
// waits for that in-flight execution instead of starting a duplicate.
// If the claimant is canceled, the claim is abandoned and one of the
// waiters claims afresh, so a cancellation never poisons a key. These
// are exactly the wait semantics of the old engine slot, made explicit
// and tested here:
//
//   - commit: a completed compute (payload or rejection error) is
//     published to all waiters and cached;
//   - abandon: a canceled compute wakes all waiters, each of which
//     retries the claim under its own context;
//   - waiters that observe a commit count as cache hits — they got an
//     outcome without paying for a pipeline run.
//
// # Bounding
//
// The cache is bounded by total cost in bytes rather than entry count,
// because payloads vary by orders of magnitude in size. An entry costs
// its payload length plus the fixed size of its slot and index entry
// (see New): measured, not estimated. When a commit pushes the
// total over MaxCost, least-recently-used committed entries are evicted
// until the cache fits; the entry being committed is never evicted by
// its own insertion, so the most recent result is always served.
// In-flight claims hold no cost and are never evicted (they are bounded
// by caller concurrency, not by the budget). A MaxCost <= 0 disables
// bounding — that is the per-solve private configuration, where
// lifetime bounds the footprint instead.
//
// # Result transparency
//
// The cache retains payloads as given and never mutates them; callers
// must treat a payload handed to or returned by Do as immutable (the
// pipeline layer decodes it into a fresh result on every hit). Under
// that contract a cache hit is bit-identical to the compute it replaced
// — the differential tests at the repository root prove it corpus-wide.
package memo

import (
	"context"
	"errors"
	"sync"
	"unsafe"
)

// Key identifies one cached outcome. Sig is the scaled-rounded instance
// signature (the per-guess identity within one solve context) and Aux
// is a hash of everything else that determines the outcome — the solver
// configuration and the instance's bag structure — so that one shared
// Cache can serve requests with different options without false
// sharing. Two keys are the same cache line iff both parts are equal.
type Key struct {
	// Sig identifies the scaled-rounded instance; see numeric.KeyOf.
	Sig Sig
	// Aux folds in the solve context: solver options and the bag vector.
	Aux uint64
}

// Sig is the fixed-size instance-signature half of a Key. It mirrors
// numeric.Key structurally so that the memo package does not import the
// numeric package (keys flow in from the pipeline layer, which owns the
// conversion).
type Sig struct {
	M, N   int32
	H0, H1 uint64
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts Do calls served without running the compute function —
	// from a committed entry or by waiting out an in-flight twin.
	Hits int64
	// Misses counts Do calls that claimed their key and ran the compute
	// function (including claims later abandoned on cancellation).
	Misses int64
	// Waits counts the subset of Hits that waited for an in-flight
	// compute rather than finding a committed entry.
	Waits int64
	// Evictions counts committed entries evicted to fit MaxCost.
	Evictions int64
	// Entries is the current number of committed entries; Negative is
	// the subset caching a rejection error.
	Entries  int
	Negative int
	// Cost is the current total cost in bytes of committed entries;
	// MaxCost is the budget (0 = unbounded).
	Cost    int64
	MaxCost int64
}

// slot is one committed entry in the cache's slab. payload is the only
// pointer; prev and next are slab indices on the LRU list (or the free
// list), -1 for none.
type slot struct {
	key        Key
	payload    []byte
	prev, next int32
	neg        bool
}

// none is the nil slab index.
const none = -1

// entryOverhead is the fixed part of an entry's cost: its slot and its
// index entry (a key and a slot number).
const entryOverhead = int64(unsafe.Sizeof(slot{}) + unsafe.Sizeof(Key{}) + unsafe.Sizeof(int32(0)))

// entryCost is the cost in bytes of a committed entry whose payload has
// n bytes.
func entryCost(n int) int64 { return entryOverhead + int64(n) }

// flight is one in-flight claim. The claimant runs the compute and
// everyone else waits on done. The outcome fields are written by the
// claimant before done is closed and read by waiters after it closes;
// served=false after done closes means the claim was abandoned and a
// waiter should claim afresh. A waiter reads the outcome from the
// flight, not the slab, so it is served even if eviction already
// dropped the committed entry.
type flight struct {
	done    chan struct{}
	served  bool
	payload []byte
	err     error
}

// chunkBits sets the slab's chunk size: slot i lives at
// chunks[i>>chunkBits][i&chunkMask].
const (
	chunkBits  = 12
	chunkSlots = 1 << chunkBits
	chunkMask  = chunkSlots - 1
)

// Cache is a bounded memo; see the package documentation. The zero
// value is not usable — use New.
type Cache struct {
	mu      sync.Mutex
	maxCost int64
	cost    int64
	index   map[Key]int32
	// chunks is the slab, n the number of slots in use. Growing the
	// slab adds a chunk of chunkSlots slots and never copies the slots
	// already there, so a large cache does not briefly hold its slab
	// twice; only the first chunk grows by append, up to chunkSlots, so
	// a small private memo stays small.
	chunks [][]slot
	n      int32
	// free heads the list of unused slots, linked through next. The
	// LRU list runs from head (most recently used) to tail (the
	// eviction candidate).
	free, head, tail int32
	flights          map[Key]*flight
	stats            Stats
}

// slot returns slot i of the slab.
func (c *Cache) slot(i int32) *slot {
	return &c.chunks[i>>chunkBits][i&chunkMask]
}

// grow adds one slot to the slab and returns its index.
func (c *Cache) grow() int32 {
	i := c.n
	switch {
	case i < chunkSlots:
		if len(c.chunks) == 0 {
			c.chunks = append(c.chunks, nil)
		}
		c.chunks[0] = append(c.chunks[0], slot{})
	case i&chunkMask == 0:
		c.chunks = append(c.chunks, make([]slot, chunkSlots))
	}
	c.n++
	return i
}

// New returns a cache bounded to maxCost total bytes: an entry costs
// its payload length plus a fixed overhead for its slot and index
// entry. maxCost <= 0 disables bounding (a private per-solve memo).
func New(maxCost int64) *Cache {
	if maxCost < 0 {
		maxCost = 0
	}
	return &Cache{
		maxCost: maxCost,
		index:   make(map[Key]int32),
		free:    none,
		head:    none,
		tail:    none,
		flights: make(map[Key]*flight),
	}
}

// MaxCost reports the configured budget (0 = unbounded).
func (c *Cache) MaxCost() int64 { return c.maxCost }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Cost = c.cost
	s.MaxCost = c.maxCost
	return s
}

// Do returns the outcome for k, computing it at most once across all
// concurrent callers. fn computes the outcome as a payload, which the
// cache retains as is and charges at its length; fn's error is cached
// as a committed negative entry (its text is the payload) unless it is
// a context cancellation, in which case the claim is abandoned and the
// next caller recomputes. hit reports that the outcome was served
// without running fn in this call (committed entry or in-flight wait);
// a hit on a committed negative entry returns an error carrying the
// rejection's text. A caller whose own ctx dies while waiting returns
// ctx.Err() without disturbing the in-flight compute. A hit on a
// committed positive entry allocates nothing.
//
// fn runs outside the cache lock; it must not call back into the same
// Cache with the same key.
func (c *Cache) Do(ctx context.Context, k Key, fn func() (payload []byte, err error)) (payload []byte, hit bool, err error) {
	for {
		c.mu.Lock()
		if i, ok := c.index[k]; ok {
			c.stats.Hits++
			c.touch(i)
			s := c.slot(i)
			payload, neg := s.payload, s.neg
			c.mu.Unlock()
			if neg {
				return nil, true, errors.New(string(payload))
			}
			return payload, true, nil
		}
		f, ok := c.flights[k]
		if !ok {
			f = &flight{done: make(chan struct{})}
			c.flights[k] = f
			c.stats.Misses++
			c.mu.Unlock()
			return c.claim(k, f, fn)
		}
		c.mu.Unlock()

		// An execution is in flight; wait for its outcome instead of
		// running a duplicate.
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.served {
			c.mu.Lock()
			c.stats.Hits++
			c.stats.Waits++
			if i, ok := c.index[k]; ok {
				c.touch(i)
			}
			c.mu.Unlock()
			return f.payload, true, f.err
		}
		// The claimant was canceled; try to claim afresh.
	}
}

// claim runs fn for the claimed key k and commits or abandons its
// outcome. If fn panics, the claim is abandoned exactly like a
// cancellation before the panic propagates — otherwise an HTTP layer
// that recovers the panic would leave the key claimed forever and every
// later caller wedged on f.done.
func (c *Cache) claim(k Key, f *flight, fn func() ([]byte, error)) (payload []byte, hit bool, err error) {
	finished := false
	defer func() {
		if !finished {
			c.release(k, f)
		}
	}()
	payload, err = fn()
	finished = true
	if IsCancellation(err) {
		// Abandon: wake waiters so one of them can claim afresh.
		c.release(k, f)
		return payload, false, err
	}
	f.served, f.payload, f.err = true, payload, err
	stored, neg := payload, err != nil
	if neg {
		stored = []byte(err.Error())
	}
	c.mu.Lock()
	delete(c.flights, k)
	c.evict(c.insert(k, stored, neg))
	c.mu.Unlock()
	close(f.done)
	return payload, false, err
}

// release drops the claim on k without committing and wakes its
// waiters, which claim afresh.
func (c *Cache) release(k Key, f *flight) {
	c.mu.Lock()
	delete(c.flights, k)
	c.mu.Unlock()
	close(f.done)
}

// insert commits a new entry for k at the LRU head and returns its slot.
func (c *Cache) insert(k Key, payload []byte, neg bool) int32 {
	i := c.free
	if i != none {
		c.free = c.slot(i).next
	} else {
		i = c.grow()
	}
	*c.slot(i) = slot{key: k, payload: payload, neg: neg}
	c.index[k] = i
	c.link(i)
	c.cost += entryCost(len(payload))
	c.stats.Entries++
	if neg {
		c.stats.Negative++
	}
	return i
}

// link inserts slot i at the LRU head.
func (c *Cache) link(i int32) {
	s := c.slot(i)
	s.prev = none
	s.next = c.head
	if c.head != none {
		c.slot(c.head).prev = i
	}
	c.head = i
	if c.tail == none {
		c.tail = i
	}
}

// unlink removes slot i from the LRU list.
func (c *Cache) unlink(i int32) {
	s := c.slot(i)
	if s.prev != none {
		c.slot(s.prev).next = s.next
	} else {
		c.head = s.next
	}
	if s.next != none {
		c.slot(s.next).prev = s.prev
	} else {
		c.tail = s.prev
	}
	s.prev, s.next = none, none
}

// touch moves slot i to the LRU head.
func (c *Cache) touch(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.link(i)
}

// remove drops slot i from the index, the list and the cost account,
// and puts it on the free list.
func (c *Cache) remove(i int32) {
	c.unlink(i)
	s := c.slot(i)
	delete(c.index, s.key)
	c.cost -= entryCost(len(s.payload))
	c.stats.Entries--
	if s.neg {
		c.stats.Negative--
	}
	*s = slot{prev: none, next: c.free}
	c.free = i
}

// evict drops least-recently-used committed entries until the cache
// fits its budget, never evicting keep (the entry whose commit
// triggered the pass, or none): the newest result is always served at
// least once.
func (c *Cache) evict(keep int32) {
	if c.maxCost <= 0 {
		return
	}
	for c.cost > c.maxCost && c.tail != none {
		victim := c.tail
		if victim == keep {
			return
		}
		c.remove(victim)
		c.stats.Evictions++
	}
}

// IsCancellation reports whether err came from a canceled or expired
// context; such outcomes describe the caller, not the key, and are
// never cached. It is exported because the serving layer's request
// coalescing applies the identical abandonment rule one layer up and
// the two predicates must stay in lockstep.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
