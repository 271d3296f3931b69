package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	want := []Batch{
		{Seq: 1, Rows: testRows(0, 3)},
		{Seq: 2, Note: "refit:"},
		{Seq: 3, Rows: testRows(1, 1)},
		{Seq: 4, Note: ""},
		{Seq: 5, Rows: testRows(2, 7)},
	}
	var buf []byte
	for _, b := range want {
		buf = EncodeBatch(buf, b)
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	var got []Batch
	for {
		b, err := DecodeBatch(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("DecodeBatch: %v", err)
		}
		got = append(got, b)
	}
	mustEqualBatches(t, got, want)
	for i := range got {
		if got[i].Note != want[i].Note {
			t.Fatalf("batch %d: note %q, want %q", i, got[i].Note, want[i].Note)
		}
		if got[i].IsControl() != (len(want[i].Rows) == 0) {
			t.Fatalf("batch %d: IsControl = %v", i, got[i].IsControl())
		}
	}
}

func TestDecodeBatchTruncatedAndCorrupt(t *testing.T) {
	frame := EncodeBatch(nil, Batch{Seq: 9, Rows: testRows(0, 2)})
	if _, err := DecodeBatch(bytes.NewReader(frame[:len(frame)-1])); err == nil {
		t.Fatal("truncated frame decoded cleanly")
	}
	if _, err := DecodeBatch(bytes.NewReader(frame[:4])); err == nil {
		t.Fatal("truncated header decoded cleanly")
	}
	flipped := bytes.Clone(frame)
	flipped[len(flipped)-1] ^= 0xFF
	if _, err := DecodeBatch(bytes.NewReader(flipped)); err == nil {
		t.Fatal("corrupt frame decoded cleanly")
	}
	if _, err := DecodeBatch(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// hugeRowCountFrame is a 32-byte frame with a valid CRC whose payload
// claims maxRecordBytes/12 rows but holds only 12 bytes after the row
// count.
func hugeRowCountFrame() []byte {
	payload := binary.LittleEndian.AppendUint64(nil, 1)
	payload = binary.LittleEndian.AppendUint32(payload, maxRecordBytes/12)
	payload = append(payload, make([]byte, 12)...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	return append(frame, payload...)
}

// TestDecodeBatchBoundsAllocation: lengths read from a frame are
// unverified, so neither a huge row count nor a huge payload length may
// size an allocation before the bytes behind it have arrived.
func TestDecodeBatchBoundsAllocation(t *testing.T) {
	maxLen := binary.LittleEndian.AppendUint32(nil, maxRecordBytes)
	maxLen = append(maxLen, make([]byte, 4+64)...)
	for name, frame := range map[string][]byte{
		"row count":      hugeRowCountFrame(),
		"payload length": maxLen,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBatch(bytes.NewReader(frame))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: crafted frame decoded cleanly", name)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
			t.Fatalf("%s: decoding a %d-byte frame allocated %d bytes", name, len(frame), delta)
		}
	}
}

// FuzzDecodeBatch: decoding arbitrary bytes never panics, and every frame
// DecodeBatch accepts re-encodes byte-identically, so a corrupt frame
// (bad CRC, bad structure) is never accepted.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch(nil, Batch{Seq: 1, Rows: testRows(0, 3)}))
	f.Add(EncodeBatch(nil, Batch{Seq: 2, Note: "refit:dirty|dirty=4"}))
	f.Add(EncodeBatch(nil, Batch{Seq: 3}))
	f.Add(hugeRowCountFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		b, err := DecodeBatch(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		if again := EncodeBatch(nil, b); !bytes.Equal(again, consumed) {
			t.Fatalf("accepted frame %x re-encodes as %x", consumed, again)
		}
	})
}

func TestControlRecordsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testRows(0, 2)); err != nil {
		t.Fatal(err)
	}
	seq, err := l.AppendNote("refit:incremental")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("note got seq %d, want 2", seq)
	}
	if _, err := l.Append(testRows(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, st, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st.Records != 3 || st.LastSeq != 3 {
		t.Fatalf("reopen found %+v, want 3 records through seq 3", st)
	}
	got := replayAll(t, l2)
	if len(got) != 3 || !got[1].IsControl() || got[1].Note != "refit:incremental" {
		t.Fatalf("replayed %+v, want control record with note at seq 2", got)
	}
}

func TestAppendBatchMirrorsSequenceExactly(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := []Batch{
		{Seq: 1, Rows: testRows(0, 3)},
		{Seq: 2, Note: "refit:"},
		{Seq: 3, Rows: testRows(1, 2)},
	}
	for _, b := range want {
		if err := l.AppendBatch(b); err != nil {
			t.Fatalf("AppendBatch(%d): %v", b.Seq, err)
		}
	}
	// A gap or a replayed duplicate must be rejected, not silently renumbered.
	if err := l.AppendBatch(Batch{Seq: 7, Rows: testRows(9, 1)}); err == nil ||
		!strings.Contains(err.Error(), "out of order") {
		t.Fatalf("gap append: err = %v, want out-of-order", err)
	}
	if err := l.AppendBatch(Batch{Seq: 3, Rows: testRows(1, 2)}); err == nil {
		t.Fatal("duplicate append succeeded")
	}
	mustEqualBatches(t, replayAll(t, l), want)
}

func TestAppendBatchResumesAboveCheckpointCoverage(t *testing.T) {
	// A follower that bootstrapped from a checkpoint covering WAL seq 41
	// opens an empty log and must mirror the primary starting at 42.
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.EnsureNextSeq(42)
	if err := l.AppendBatch(Batch{Seq: 41, Rows: testRows(0, 1)}); err == nil {
		t.Fatal("append below the checkpoint coverage succeeded")
	}
	if err := l.AppendBatch(Batch{Seq: 42, Rows: testRows(0, 1)}); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateBeforeNoCursorsFastPath pins the single-consumer behavior:
// with no cursors registered, the floor is exactly the caller's bound.
func TestTruncateBeforeNoCursorsFastPath(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 200; i++ {
		if last, err = l.Append(testRows(i, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("want several segments, got %d", st.Segments)
	}
	if err := l.TruncateBefore(last); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments != 1 {
		t.Fatalf("no-cursor truncation left %d segments, want only the active one", st.Segments)
	}
	got := replayAll(t, l)
	if len(got) == 0 || got[len(got)-1].Seq != last {
		t.Fatalf("newest record lost: %d batches survive", len(got))
	}
}

func TestCursorPinsTruncationFloor(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 4 << 10, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 200; i++ {
		if last, err = l.Append(testRows(i, 8)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats().Segments

	// A follower acknowledged through seq 10: records 11.. must survive a
	// truncation request at the checkpoint bound (last).
	cur := l.OpenCursor("follower-a", 10)
	if err := l.TruncateBefore(last); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	if err := l.Replay(11, func(b Batch) error { seen[b.Seq] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(11); seq <= last; seq++ {
		if !seen[seq] {
			t.Fatalf("record %d was truncated away despite cursor at 10", seq)
		}
	}

	// Advancing the cursor releases segments; Advance never moves backward.
	cur.Advance(last - 1)
	cur.Advance(5)
	if got := cur.Seq(); got != last-1 {
		t.Fatalf("cursor at %d, want %d", got, last-1)
	}
	if err := l.TruncateBefore(last); err != nil {
		t.Fatal(err)
	}
	mid := l.Stats().Segments
	if mid >= before {
		t.Fatalf("advanced cursor did not release segments (%d -> %d)", before, mid)
	}

	// Closing the cursor restores the fast path entirely.
	cur.Close()
	cur.Close() // idempotent
	if err := l.TruncateBefore(last); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("closed cursor still pins %d segments", got)
	}
}

func TestCursorsListing(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Cursors(); len(got) != 0 {
		t.Fatalf("fresh log lists %d cursors", len(got))
	}
	b := l.OpenCursor("b", 7)
	a := l.OpenCursor("a", 3)
	got := l.Cursors()
	if len(got) != 2 || got[0] != (CursorInfo{Name: "a", Seq: 3}) || got[1] != (CursorInfo{Name: "b", Seq: 7}) {
		t.Fatalf("Cursors() = %+v", got)
	}
	if a.Name() != "a" || b.Name() != "b" {
		t.Fatal("cursor names lost")
	}
	a.Close()
	b.Close()
	if got := l.Cursors(); len(got) != 0 {
		t.Fatalf("closed cursors still listed: %+v", got)
	}
}

func TestHasState(t *testing.T) {
	dir := t.TempDir()
	if ok, err := HasState(dir); err != nil || ok {
		t.Fatalf("empty dir: HasState = %v, %v", ok, err)
	}
	rec, err := Recover(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := HasState(dir); ok {
		t.Fatal("directory with no records or checkpoints reports state")
	}
	if _, err := rec.Log.Append(testRows(0, 2)); err != nil {
		t.Fatal(err)
	}
	rec.Log.Close()
	if ok, err := HasState(dir); err != nil || !ok {
		t.Fatalf("dir with a segment: HasState = %v, %v", ok, err)
	}
}
