package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"syscall"

	"repro/internal/sched"
)

// arena holds calls built in setup outside the Go heap, in anonymous
// memory mappings. The collector neither scans it nor counts it toward
// its heap goal, so a corpus built in setup adds only its own size to
// peak_rss_mb and leaves the server's collections as they would be
// without it. Built in the heap, the cold corpus raised peak_rss_mb
// from about 385 to 680 MiB. The bytes of a call taken from the arena
// stay valid until free.
type arena struct {
	chunks [][]byte
	used   int         // bytes used in the last chunk
	size   int         // bytes used in all chunks
	spans  []arenaSpan // pointer-free, so the collector skips it too
}

type arenaSpan struct{ chunk, off, n uint32 }

const arenaChunk = 16 << 20

// add stores one call.
func (a *arena) add(c *call) error {
	rec := encodeCall(c)
	if len(a.chunks) == 0 || a.used+len(rec) > len(a.chunks[len(a.chunks)-1]) {
		mem, err := syscall.Mmap(-1, 0, max(arenaChunk, len(rec)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("arena: %w", err)
		}
		a.chunks, a.used = append(a.chunks, mem), 0
	}
	k := len(a.chunks) - 1
	copy(a.chunks[k][a.used:], rec)
	a.spans = append(a.spans, arenaSpan{uint32(k), uint32(a.used), uint32(len(rec))})
	a.used += len(rec)
	a.size += len(rec)
	return nil
}

func (a *arena) len() int { return len(a.spans) }

// get rebuilds call i; its body is a view of the arena.
func (a *arena) get(i int) *call {
	s := a.spans[i]
	return decodeCall(a.chunks[s.chunk][s.off : s.off+s.n : s.off+s.n])
}

// free unmaps the arena.
func (a *arena) free() {
	for _, c := range a.chunks {
		syscall.Munmap(c) //nolint:errcheck // the mapping is ours and whole
	}
	a.chunks, a.spans = nil, nil
}

// encodeCall lays out a /v1/solve call with a unique body as: a flag
// byte (bag constraints apply), bags, machines, jobs and speeds as
// uint16, the speeds, each job's size and bag, and then the body.
func encodeCall(c *call) []byte {
	in := c.inst
	b := make([]byte, 0, 9+8*len(in.Speeds)+10*len(in.Jobs)+len(c.body))
	var flag byte
	if c.bags {
		flag = 1
	}
	b = append(b, flag)
	b = binary.LittleEndian.AppendUint16(b, uint16(in.NumBags))
	b = binary.LittleEndian.AppendUint16(b, uint16(in.Machines))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(in.Jobs)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(in.Speeds)))
	for _, s := range in.Speeds {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s))
	}
	for _, j := range in.Jobs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(j.Size))
		b = binary.LittleEndian.AppendUint16(b, uint16(j.Bag))
	}
	return append(b, c.body...)
}

// decodeCall is the inverse of encodeCall.
func decodeCall(b []byte) *call {
	le := binary.LittleEndian
	in := &sched.Instance{NumBags: int(le.Uint16(b[1:])), Machines: int(le.Uint16(b[3:]))}
	n, ns := int(le.Uint16(b[5:])), int(le.Uint16(b[7:]))
	b, bags := b[9:], b[0] == 1
	if ns > 0 {
		in.Speeds = make([]float64, ns)
		for i := range in.Speeds {
			in.Speeds[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
		b = b[8*ns:]
	}
	in.Jobs = make([]sched.Job, n)
	for i := range in.Jobs {
		in.Jobs[i] = sched.Job{ID: sched.JobID(i), Size: math.Float64frombits(le.Uint64(b[10*i:])), Bag: int(le.Uint16(b[10*i+8:]))}
	}
	return &call{path: "/v1/solve", body: b[10*n:], inst: in, bags: bags, slot: -1}
}
