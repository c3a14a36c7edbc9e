package memo

// Snapshot format: a versioned, checksummed serialization of a cache's
// committed entries (positive and negative), so a replica can persist
// its warm state on graceful shutdown, warm-start on boot, or ship the
// file to a peer. Entries are location-independent by construction —
// a Key is a pure function of the scaled-rounded instance signature and
// the solve configuration, never of the process that computed it — so a
// snapshot written by one replica is valid input for any other replica
// running the same code.
//
// The cache already holds every entry as its payload bytes — the
// caller's encoding of a positive outcome (the pipeline layer's exact
// fixed-point/integer result codec), or a negative entry's error text —
// so this package owns the container (header, per-entry framing,
// ordering, checksum) and writes payloads as they are. On import the
// caller passes a check function that validates each positive payload.
//
// # Layout
//
//	magic   "bgms" (4 bytes)
//	version uint32 little-endian (currently 1)
//	count   uint32 little-endian
//	count records:
//	  key     M, N int32; H0, H1, Aux uint64 (little-endian)
//	  cost    int64 (the entry's cost at export; the importer
//	          recomputes it from the payload length)
//	  kind    byte (0 positive, 1 negative)
//	  payload uint32 length + bytes (codec output, or error text)
//	crc     uint64 little-endian CRC-64/ECMA of everything before it
//
// Records are ordered least-recently-used first, so an importer that
// links each record at the LRU head reproduces the exporter's recency
// order, and an importer with a smaller budget keeps the hottest
// suffix.
//
// # Versioning contract
//
// The container version changes only when this layout changes; value
// payloads carry their own codec version (first payload byte, owned by
// the caller's codec). A reader rejects unknown container versions with
// ErrSnapshotVersion and any framing or checksum damage with
// ErrSnapshotCorrupt — callers treat both as "skip the snapshot and
// start cold", never as fatal. An entry whose payload the check
// function rejects is skipped individually; the rest of the snapshot
// still loads.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// snapshotMagic and snapshotVersion identify the container format.
var snapshotMagic = [4]byte{'b', 'g', 'm', 's'}

const snapshotVersion = 1

// Sanity bounds applied while parsing untrusted snapshot bytes; both are
// far above anything a real cache produces but keep a corrupt or
// adversarial length field from driving huge allocations before the
// checksum verdict is in.
const (
	maxSnapshotEntries = 1 << 24
	maxPayloadBytes    = 1 << 28
)

// ErrSnapshotVersion reports a snapshot written by an unknown container
// version; ErrSnapshotCorrupt reports framing or checksum damage.
// Callers are expected to log and start cold on either.
var (
	ErrSnapshotVersion = errors.New("memo: unsupported snapshot version")
	ErrSnapshotCorrupt = errors.New("memo: corrupt snapshot")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Len reports the number of committed entries (in-flight claims are not
// counted).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.Entries
}

// CostUsed reports the current total cost of committed entries.
func (c *Cache) CostUsed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

// exported is the under-lock copy of one committed entry taken by
// Export: everything needed to serialize the entry after the lock is
// released. The payload is referenced, not copied — payloads are
// immutable by the package contract, so reading them outside the lock
// is safe.
type exported struct {
	key     Key
	payload []byte
	neg     bool
}

// Export writes a snapshot of every committed entry to w, payloads as
// they are. An entry whose payload exceeds the container's sanity bound
// (which an importer would reject) is left out and counted in the
// returned skipped total.
//
// Export observes the cache under its lock only long enough to copy the
// entry list (keys and payload references) — framing and I/O all happen
// outside the lock, so a snapshot of a large cache never stalls
// concurrent solvers. Exporting is read-only: it does not touch LRU
// recency order and perturbs no counter, so a mid-traffic export is
// invisible to cache behaviour (unit-tested).
func (c *Cache) Export(w io.Writer) (written, skipped int, err error) {
	c.mu.Lock()
	entries := make([]exported, 0, c.stats.Entries)
	// Tail (least recently used) first; see the layout notes above.
	for i := c.tail; i != none; i = c.slot(i).prev {
		s := c.slot(i)
		if len(s.payload) > maxPayloadBytes {
			skipped++
			continue
		}
		entries = append(entries, exported{key: s.key, payload: s.payload, neg: s.neg})
	}
	c.mu.Unlock()

	cw := &crcWriter{w: w}
	buf := make([]byte, 0, 64)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	if _, err := cw.Write(buf); err != nil {
		return 0, skipped, err
	}
	for _, e := range entries {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.key.Sig.M))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.key.Sig.N))
		buf = binary.LittleEndian.AppendUint64(buf, e.key.Sig.H0)
		buf = binary.LittleEndian.AppendUint64(buf, e.key.Sig.H1)
		buf = binary.LittleEndian.AppendUint64(buf, e.key.Aux)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(entryCost(len(e.payload))))
		if e.neg {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.payload)))
		if _, err := cw.Write(buf); err != nil {
			return 0, skipped, err
		}
		if _, err := cw.Write(e.payload); err != nil {
			return 0, skipped, err
		}
	}
	var foot [8]byte
	binary.LittleEndian.PutUint64(foot[:], cw.sum)
	if _, err := w.Write(foot[:]); err != nil {
		return 0, skipped, err
	}
	return len(entries), skipped, nil
}

// crcWriter forwards to w while accumulating a CRC-64/ECMA of every
// byte written through it.
type crcWriter struct {
	w   io.Writer
	sum uint64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc64.Update(c.sum, crcTable, p[:n])
	return n, err
}

// ImportStats reports what Import did with a snapshot.
type ImportStats struct {
	// Loaded is the number of entries committed into the cache;
	// LoadedNegative is the subset caching a rejection.
	Loaded         int
	LoadedNegative int
	// SkippedExisting counts entries whose key was already present (the
	// live entry wins), SkippedBudget entries dropped because the cache
	// budget could not fit them (the coldest entries drop first), and
	// SkippedDecode entries whose payload the check function rejected.
	SkippedExisting int
	SkippedBudget   int
	SkippedDecode   int
}

// Skipped is the total number of snapshot entries not loaded.
func (s ImportStats) Skipped() int {
	return s.SkippedExisting + s.SkippedBudget + s.SkippedDecode
}

// Import loads a snapshot written by Export into the cache. check
// validates a positive entry's payload (the caller's decoder); an entry
// it rejects is skipped, not fatal. Each loaded entry is charged its
// cost recomputed from its payload length, whatever cost the snapshot
// recorded. A snapshot from an unknown container version fails with
// ErrSnapshotVersion, framing or checksum damage with
// ErrSnapshotCorrupt; in both cases the cache is left untouched.
//
// Entries already present in the cache, committed or in flight, are
// skipped (the live state wins). When the snapshot does not fit the cache budget the
// least-recently-used entries are dropped first, so a replica with a
// smaller budget inherits the hottest slice of a bigger one's state.
// Like Export, Import never holds the cache lock across I/O or
// validation: the snapshot is parsed and checked first, then committed
// under one short critical section.
func (c *Cache) Import(r io.Reader, check func(payload []byte) error) (ImportStats, error) {
	var st ImportStats
	data, err := io.ReadAll(r)
	if err != nil {
		return st, err
	}
	if len(data) < 20 {
		return st, fmt.Errorf("%w: truncated header (%d bytes)", ErrSnapshotCorrupt, len(data))
	}
	if [4]byte(data[:4]) != snapshotMagic {
		return st, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != snapshotVersion {
		return st, fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, v, snapshotVersion)
	}
	body, foot := data[:len(data)-8], data[len(data)-8:]
	if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(foot) {
		return st, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	count := binary.LittleEndian.Uint32(body[8:12])
	if count > maxSnapshotEntries {
		return st, fmt.Errorf("%w: implausible entry count %d", ErrSnapshotCorrupt, count)
	}

	// Records reference their payloads inside data until the commit
	// below copies each one it keeps into an allocation of its own, so
	// a loaded entry never pins the whole snapshot buffer.
	records := make([]exported, 0, count)
	off := 12
	for i := uint32(0); i < count; i++ {
		// key (32) + cost (8) + kind (1) + payload length (4).
		if len(body)-off < 45 {
			return st, fmt.Errorf("%w: truncated record %d", ErrSnapshotCorrupt, i)
		}
		var rec exported
		rec.key.Sig.M = int32(binary.LittleEndian.Uint32(body[off:]))
		rec.key.Sig.N = int32(binary.LittleEndian.Uint32(body[off+4:]))
		rec.key.Sig.H0 = binary.LittleEndian.Uint64(body[off+8:])
		rec.key.Sig.H1 = binary.LittleEndian.Uint64(body[off+16:])
		rec.key.Aux = binary.LittleEndian.Uint64(body[off+24:])
		// body[off+32:off+40] is the recorded cost, superseded by the
		// payload length.
		kind := body[off+40]
		plen := binary.LittleEndian.Uint32(body[off+41:])
		off += 45
		if plen > maxPayloadBytes || len(body)-off < int(plen) {
			return st, fmt.Errorf("%w: truncated payload in record %d", ErrSnapshotCorrupt, i)
		}
		rec.payload = body[off : off+int(plen)]
		off += int(plen)
		switch kind {
		case 0:
			if check(rec.payload) != nil {
				st.SkippedDecode++
				continue
			}
		case 1:
			// A rejection is served as an error carrying its text, like
			// any committed negative entry; the solver layers only
			// branch on nil-ness (and on cancellation, which is never
			// committed).
			rec.neg = true
		default:
			return st, fmt.Errorf("%w: unknown entry kind %d in record %d", ErrSnapshotCorrupt, kind, i)
		}
		records = append(records, rec)
	}
	if off != len(body) {
		return st, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(body)-off)
	}

	// Budget pass: records are coldest-first, so when they cannot all
	// fit, drop the leading (cold) prefix and keep the hot suffix.
	start := 0
	if c.maxCost > 0 {
		var need int64
		for _, rec := range records {
			need += entryCost(len(rec.payload))
		}
		for start < len(records) && need > c.maxCost {
			need -= entryCost(len(records[start].payload))
			st.SkippedBudget++
			start++
		}
	}
	kept := records[start:]
	for i := range kept {
		kept[i].payload = bytes.Clone(kept[i].payload)
	}

	c.mu.Lock()
	for _, rec := range kept {
		_, committed := c.index[rec.key]
		if _, inFlight := c.flights[rec.key]; committed || inFlight {
			st.SkippedExisting++
			continue
		}
		c.insert(rec.key, rec.payload, rec.neg)
		st.Loaded++
		if rec.neg {
			st.LoadedNegative++
		}
	}
	// Imported entries count toward the budget like any commit; if live
	// traffic raced a concurrent commit past the budget, trim back to it
	// (the entries just linked at the head are the last to go).
	c.evict(none)
	c.mu.Unlock()
	return st, nil
}
