package memo

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"testing"
)

// acceptAll is the check function of container-level tests: every
// payload is valid.
func acceptAll([]byte) error { return nil }

func keyOf(i int) Key {
	return Key{Sig: Sig{M: int32(i), N: int32(i + 1), H0: uint64(i) * 77, H1: uint64(i) * 131}, Aux: uint64(i)}
}

// vpay is the payload fill commits for key i: "v000".."v999", so every
// entry has the same cost.
func vpay(i int) []byte { return []byte(fmt.Sprintf("v%03d", i)) }

// vcost is the cost of one fill entry.
var vcost = entryCost(len(vpay(0)))

// fill commits n positive entries (vpay(0)..vpay(n-1)) in key order, so
// key n-1 is the most recently used.
func fill(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := c.Do(context.Background(), keyOf(i), func() ([]byte, error) {
			return vpay(i), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := New(0)
	fill(t, src, 5)
	rejection := errors.New("oracle: configuration program infeasible")
	if _, _, err := src.Do(context.Background(), keyOf(100), func() ([]byte, error) {
		return nil, rejection
	}); err == nil {
		t.Fatal("expected the negative compute to return its error")
	}

	var buf bytes.Buffer
	written, skipped, err := src.Export(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if written != 6 || skipped != 0 {
		t.Fatalf("export wrote %d entries (skipped %d), want 6 (0)", written, skipped)
	}

	dst := New(0)
	st, err := dst.Import(bytes.NewReader(buf.Bytes()), acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 6 || st.LoadedNegative != 1 || st.Skipped() != 0 {
		t.Fatalf("import stats %+v, want 6 loaded (1 negative), 0 skipped", st)
	}
	if dst.Len() != 6 || dst.CostUsed() != src.CostUsed() {
		t.Fatalf("imported cache has %d entries / cost %d, want 6 / %d", dst.Len(), dst.CostUsed(), src.CostUsed())
	}
	// Every positive entry must serve a hit with the original payload.
	for i := 0; i < 5; i++ {
		v, hit, err := dst.Do(context.Background(), keyOf(i), func() ([]byte, error) {
			t.Fatalf("key %d recomputed after import", i)
			return nil, nil
		})
		if err != nil || !hit || !bytes.Equal(v, vpay(i)) {
			t.Fatalf("key %d: v=%q hit=%v err=%v", i, v, hit, err)
		}
	}
	// The negative entry must serve its rejection text without recompute.
	_, hit, err := dst.Do(context.Background(), keyOf(100), func() ([]byte, error) {
		t.Fatal("negative key recomputed after import")
		return nil, nil
	})
	if !hit || err == nil || err.Error() != rejection.Error() {
		t.Fatalf("negative key: hit=%v err=%v", hit, err)
	}
	// Import must count hits like any committed entry did.
	if s := dst.Stats(); s.Hits != 6 || s.Misses != 0 {
		t.Fatalf("post-import stats %+v, want 6 hits / 0 misses", s)
	}
}

// TestSnapshotPreservesRecency checks the LRU order survives a
// round-trip: importing into a smaller budget must keep the most
// recently used entries and drop the cold ones.
func TestSnapshotPreservesRecency(t *testing.T) {
	src := New(0)
	fill(t, src, 10)
	// Touch key 0 so it becomes the most recent — the snapshot order is
	// recency, not insertion.
	if _, hit, _ := src.Do(context.Background(), keyOf(0), nil); !hit {
		t.Fatal("touch of key 0 missed")
	}

	var buf bytes.Buffer
	if _, _, err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Budget for 3 of the 10 entries: must keep the 3 hottest
	// (0 — just touched — then 9, then 8).
	dst := New(3 * vcost)
	st, err := dst.Import(bytes.NewReader(buf.Bytes()), acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 3 || st.SkippedBudget != 7 {
		t.Fatalf("import stats %+v, want 3 loaded / 7 budget-skipped", st)
	}
	for _, want := range []int{0, 9, 8} {
		if _, hit, _ := dst.Do(context.Background(), keyOf(want), nil); !hit {
			t.Errorf("hot key %d missing after budget-limited import", want)
		}
	}
	for _, cold := range []int{1, 2, 3} {
		recomputed := false
		dst.Do(context.Background(), keyOf(cold), func() ([]byte, error) { //nolint:errcheck
			recomputed = true
			return vpay(cold), nil
		})
		if !recomputed {
			t.Errorf("cold key %d unexpectedly survived the budget cut", cold)
		}
	}
}

// TestExportDoesNotPerturb is the mid-traffic contract: exporting must
// change neither the counters nor the LRU eviction order of the live
// cache.
func TestExportDoesNotPerturb(t *testing.T) {
	c := New(5 * vcost) // exactly 5 fill entries
	fill(t, c, 5)
	before := c.Stats()

	var buf bytes.Buffer
	if _, _, err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("export perturbed stats: %+v -> %+v", before, after)
	}

	// One more commit must evict key 0 — the LRU victim an untouched
	// cache would pick. If Export had touched entries, the victim would
	// differ.
	if _, _, err := c.Do(context.Background(), keyOf(50), func() ([]byte, error) {
		return vpay(50), nil
	}); err != nil {
		t.Fatal(err)
	}
	evicted := false
	c.Do(context.Background(), keyOf(0), func() ([]byte, error) { //nolint:errcheck
		evicted = true
		return vpay(0), nil
	})
	if !evicted {
		t.Fatal("post-export commit did not evict the pre-export LRU victim")
	}
	if s := c.Stats(); s.Evictions != before.Evictions+2 {
		// key 0 for the new commit, then key 1 for key 0's recompute.
		t.Fatalf("evictions %d, want %d", s.Evictions, before.Evictions+2)
	}
}

func TestImportSkipsExisting(t *testing.T) {
	src := New(0)
	fill(t, src, 3)
	var buf bytes.Buffer
	if _, _, err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}

	dst := New(0)
	// Pre-commit key 1 with a different payload; the live entry must win.
	if _, _, err := dst.Do(context.Background(), keyOf(1), func() ([]byte, error) {
		return []byte("live"), nil
	}); err != nil {
		t.Fatal(err)
	}
	st, err := dst.Import(bytes.NewReader(buf.Bytes()), acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 2 || st.SkippedExisting != 1 {
		t.Fatalf("import stats %+v, want 2 loaded / 1 existing-skipped", st)
	}
	v, hit, _ := dst.Do(context.Background(), keyOf(1), nil)
	if !hit || string(v) != "live" {
		t.Fatalf("live entry overwritten by import: v=%q hit=%v", v, hit)
	}
}

// TestImportSkipsInFlight: a key being computed while a snapshot loads
// is live state too; the import skips it and the claimant's commit is
// the one entry for the key.
func TestImportSkipsInFlight(t *testing.T) {
	src := New(0)
	fill(t, src, 3)
	var buf bytes.Buffer
	if _, _, err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New(0)
	claimed, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		dst.Do(context.Background(), keyOf(1), func() ([]byte, error) { //nolint:errcheck
			close(claimed)
			<-release
			return []byte("live"), nil
		})
	}()
	<-claimed
	st, err := dst.Import(bytes.NewReader(buf.Bytes()), acceptAll)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	<-done
	if st.Loaded != 2 || st.SkippedExisting != 1 {
		t.Fatalf("import stats %+v, want 2 loaded / 1 existing-skipped", st)
	}
	if dst.Len() != 3 || dst.CostUsed() != 2*vcost+entryCost(len("live")) {
		t.Fatalf("cache holds %d entries / cost %d after the claimant committed", dst.Len(), dst.CostUsed())
	}
	if v, hit, _ := dst.Do(context.Background(), keyOf(1), nil); !hit || string(v) != "live" {
		t.Fatalf("in-flight key: v=%q hit=%v, want the claimant's commit", v, hit)
	}
}

// TestImportRecomputesCost: the cost a snapshot records is not trusted;
// each loaded entry is charged its payload length plus the fixed
// overhead, like a live commit.
func TestImportRecomputesCost(t *testing.T) {
	src := New(0)
	fill(t, src, 2)
	var buf bytes.Buffer
	if _, _, err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Record 0 starts after the 12-byte header; its cost follows the
	// 32-byte key. Rewrite it and re-seal the checksum.
	binary.LittleEndian.PutUint64(data[12+32:], 1<<40)
	binary.LittleEndian.PutUint64(data[len(data)-8:], crc64.Checksum(data[:len(data)-8], crcTable))
	dst := New(0)
	if _, err := dst.Import(bytes.NewReader(data), acceptAll); err != nil {
		t.Fatal(err)
	}
	if got := dst.CostUsed(); got != 2*vcost {
		t.Fatalf("imported cost %d, want %d measured from the payloads", got, 2*vcost)
	}
}

func TestImportRejectsDamage(t *testing.T) {
	src := New(0)
	fill(t, src, 3)
	var buf bytes.Buffer
	if _, _, err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrSnapshotCorrupt},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrSnapshotCorrupt},
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], snapshotVersion+7)
			return b
		}, ErrSnapshotVersion},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, ErrSnapshotCorrupt},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }, ErrSnapshotCorrupt},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAB) }, ErrSnapshotCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), good...))
			dst := New(0)
			_, err := dst.Import(bytes.NewReader(data), acceptAll)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if dst.Len() != 0 {
				t.Fatalf("damaged snapshot loaded %d entries into the cache", dst.Len())
			}
		})
	}
	// A version-flip breaks the checksum too; rewrite the CRC so the
	// version check is what actually fires.
	bad := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[4:8], snapshotVersion+1)
	binary.LittleEndian.PutUint64(bad[len(bad)-8:], crc64.Checksum(bad[:len(bad)-8], crcTable))
	if _, err := New(0).Import(bytes.NewReader(bad), acceptAll); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version mismatch reported %v, want ErrSnapshotVersion", err)
	}
}

// TestImportSkipsUndecodableValues: one bad payload must not poison the
// rest of the snapshot.
func TestImportSkipsUndecodableValues(t *testing.T) {
	src := New(0)
	fill(t, src, 4)
	var buf bytes.Buffer
	if _, _, err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	pickyCheck := func(p []byte) error {
		n++
		if n == 2 {
			return fmt.Errorf("codec: unsupported payload")
		}
		return nil
	}
	dst := New(0)
	st, err := dst.Import(bytes.NewReader(buf.Bytes()), pickyCheck)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loaded != 3 || st.SkippedDecode != 1 {
		t.Fatalf("import stats %+v, want 3 loaded / 1 decode-skipped", st)
	}
}

// FuzzImport: arbitrary bytes must never panic, over-allocate, or load
// entries into the cache unless the container round-trips its checksum.
func FuzzImport(f *testing.F) {
	src := New(0)
	for i := 0; i < 3; i++ {
		src.Do(context.Background(), keyOf(i), func() ([]byte, error) { //nolint:errcheck
			return vpay(i), nil
		})
	}
	var seed bytes.Buffer
	if _, _, err := src.Export(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(snapshotMagic[:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(0)
		st, err := c.Import(bytes.NewReader(data), acceptAll)
		if err != nil && c.Len() != 0 {
			t.Fatalf("failed import left %d entries in the cache", c.Len())
		}
		if err == nil && c.Len() != st.Loaded {
			t.Fatalf("import reported %d loaded but cache holds %d", st.Loaded, c.Len())
		}
	})
}
