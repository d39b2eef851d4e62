package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte(`{"kind":"ingest"}`),
		[]byte(""),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var wal []byte
	for _, p := range payloads {
		wal = append(wal, EncodeFrame(p)...)
	}
	got, torn := DecodeFrames(wal)
	if torn != 0 {
		t.Fatalf("torn = %d on an intact log", torn)
	}
	if len(got) != len(payloads) {
		t.Fatalf("decoded %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestDecodeTornTailEveryByte is the kill-at-every-byte harness: a log
// of N records truncated at every byte boundary inside the tail record
// must recover exactly the N-1 intact records and report the dropped
// tail, never fail.
func TestDecodeTornTailEveryByte(t *testing.T) {
	var wal []byte
	var bounds []int // byte offset where each record's frame ends
	const n = 5
	for i := 0; i < n; i++ {
		wal = append(wal, EncodeFrame([]byte(fmt.Sprintf(`{"rec":%d,"pad":"0123456789"}`, i)))...)
		bounds = append(bounds, len(wal))
	}
	tailStart := bounds[n-2]
	for cut := tailStart; cut <= len(wal); cut++ {
		got, torn := DecodeFrames(wal[:cut])
		wantRecs, wantTorn := n-1, int64(cut-tailStart)
		if cut == len(wal) {
			wantRecs, wantTorn = n, 0
		}
		if len(got) != wantRecs || torn != wantTorn {
			t.Fatalf("cut %d: got %d records torn %d, want %d records torn %d",
				cut, len(got), torn, wantRecs, wantTorn)
		}
	}
}

func TestDecodeCorruptRecordStopsReplay(t *testing.T) {
	var wal []byte
	for i := 0; i < 3; i++ {
		wal = append(wal, EncodeFrame([]byte(fmt.Sprintf(`{"rec":%d}`, i)))...)
	}
	// Flip one payload byte of the middle record: checksum mismatch must
	// stop decoding there, keeping only the first record.
	first := len(EncodeFrame([]byte(`{"rec":0}`)))
	wal[first+frameHeaderLen+2] ^= 0xFF
	got, torn := DecodeFrames(wal)
	if len(got) != 1 {
		t.Fatalf("decoded %d records past corruption, want 1", len(got))
	}
	if torn != int64(len(wal)-first) {
		t.Fatalf("torn = %d, want %d", torn, len(wal)-first)
	}
}

// FuzzDecodeFrames: arbitrary bytes never panic the decoder, the
// payloads it returns plus the torn byte count account for the whole
// input, and re-encoding the payloads reproduces the intact prefix.
func FuzzDecodeFrames(f *testing.F) {
	two := append(EncodeFrame([]byte(`{"kind":"ingest"}`)), EncodeFrame(nil)...)
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(append(append([]byte(nil), two...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, torn := DecodeFrames(data)
		var intact []byte
		for _, p := range payloads {
			intact = append(intact, EncodeFrame(p)...)
		}
		if int64(len(intact))+torn != int64(len(data)) {
			t.Fatalf("%d intact + %d torn bytes, want %d", len(intact), torn, len(data))
		}
		if !bytes.Equal(intact, data[:len(intact)]) {
			t.Fatal("re-encoded payloads differ from the intact prefix")
		}
	})
}

// backends returns a fresh instance of every Backend implementation for
// the shared contract test.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	local, err := NewLocal(filepath.Join(t.TempDir(), "persist"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"memory": NewMemory(), "local": local}
}

func TestBackendContract(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if snap, err := b.ReadSnapshot(); err != nil || snap != nil {
				t.Fatalf("fresh snapshot = %v, %v", snap, err)
			}
			for i := 0; i < 3; i++ {
				if err := b.AppendWAL(EncodeFrame([]byte(fmt.Sprintf("r%d", i)))); err != nil {
					t.Fatal(err)
				}
			}
			wal, err := b.ReadWAL()
			if err != nil {
				t.Fatal(err)
			}
			recs, torn := DecodeFrames(wal)
			if len(recs) != 3 || torn != 0 {
				t.Fatalf("got %d records torn %d", len(recs), torn)
			}
			if sz, _ := b.WALSize(); sz != int64(len(wal)) {
				t.Fatalf("WALSize = %d, want %d", sz, len(wal))
			}
			if err := b.Checkpoint([]byte("snap-1")); err != nil {
				t.Fatal(err)
			}
			if sz, _ := b.WALSize(); sz != 0 {
				t.Fatalf("WALSize after checkpoint = %d", sz)
			}
			snap, err := b.ReadSnapshot()
			if err != nil || string(snap) != "snap-1" {
				t.Fatalf("snapshot = %q, %v", snap, err)
			}
			if sz, _ := b.SnapshotSize(); sz != int64(len("snap-1")) {
				t.Fatalf("SnapshotSize = %d", sz)
			}
			// Records appended after a checkpoint are the new log.
			if err := b.AppendWAL(EncodeFrame([]byte("post"))); err != nil {
				t.Fatal(err)
			}
			wal, _ = b.ReadWAL()
			recs, _ = DecodeFrames(wal)
			if len(recs) != 1 || string(recs[0]) != "post" {
				t.Fatalf("post-checkpoint wal = %q", recs)
			}
		})
	}
}

// TestBackendSegmentContract: segments are stored, listed in name
// order, read back and deleted alike on every backend, and
// SnapshotSize counts them before any snapshot exists.
func TestBackendSegmentContract(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if segs, err := b.ListSegments(); err != nil || len(segs) != 0 {
				t.Fatalf("fresh segments = %v, %v", segs, err)
			}
			for _, seg := range []struct{ name, data string }{{"s2", "de"}, {"s1", "abc"}} {
				if err := b.PutSegment(seg.name, []byte(seg.data)); err != nil {
					t.Fatal(err)
				}
			}
			if sz, _ := b.SnapshotSize(); sz != 5 {
				t.Fatalf("SnapshotSize with segments and no snapshot = %d, want 5", sz)
			}
			segs, err := b.ListSegments()
			if err != nil || fmt.Sprint(segs) != "[{s1 3} {s2 2}]" {
				t.Fatalf("segments = %v, %v", segs, err)
			}
			if got, err := b.ReadSegment("s1"); err != nil || string(got) != "abc" {
				t.Fatalf("s1 = %q, %v", got, err)
			}
			if _, err := b.ReadSegment("nope"); !errors.Is(err, ErrNoSegment) {
				t.Fatalf("missing segment = %v, want ErrNoSegment", err)
			}
			if err := b.DeleteSegment("s1"); err != nil {
				t.Fatal(err)
			}
			if err := b.DeleteSegment("s1"); err != nil {
				t.Fatalf("deleting a missing segment = %v", err)
			}
			if err := b.Checkpoint([]byte("snap")); err != nil {
				t.Fatal(err)
			}
			if sz, _ := b.SnapshotSize(); sz != 6 {
				t.Fatalf("SnapshotSize = %d, want snapshot 4 + segment 2", sz)
			}
		})
	}
}

// TestLocalSegmentsSurviveReopen: a segment put under SyncAlways is a
// file under segments/ a fresh handle reads back; a name that could
// leave that directory, or one already stored, is refused.
func TestLocalSegmentsSurviveReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "persist")
	b, err := NewLocal(dir, WithSync(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.PutSegment("0001", []byte("raw")); err != nil {
		t.Fatal(err)
	}
	if err := b.PutSegment("0001", []byte("again")); err == nil {
		t.Error("a put over a stored segment succeeded")
	}
	for _, bad := range []string{"", ".", "..", "../snapshot", `a\b`} {
		if err := b.PutSegment(bad, []byte("x")); err == nil {
			t.Errorf("put of segment %q succeeded", bad)
		}
		if _, err := b.ReadSegment(bad); err == nil {
			t.Errorf("read of segment %q succeeded", bad)
		}
	}
	b2, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := b2.ReadSegment("0001"); err != nil || string(got) != "raw" {
		t.Fatalf("segment after reopen = %q, %v", got, err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b2.PutSegment("0002", []byte("x")); err != ErrClosed {
		t.Fatalf("put after close = %v, want ErrClosed", err)
	}
}

// TestLocalReopenRecovers reopens a Local directory with a fresh
// instance — the hard-stop path — and with fsync on.
func TestLocalReopenRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "persist")
	b, err := NewLocal(dir, WithSync(SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendWAL(EncodeFrame([]byte("after"))); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a hard stop by just reopening the directory.
	b2, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := b2.ReadSnapshot()
	if err != nil || string(snap) != "snap" {
		t.Fatalf("snapshot = %q, %v", snap, err)
	}
	wal, _ := b2.ReadWAL()
	recs, torn := DecodeFrames(wal)
	if len(recs) != 1 || string(recs[0]) != "after" || torn != 0 {
		t.Fatalf("recovered %d records torn %d", len(recs), torn)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b2.AppendWAL(EncodeFrame([]byte("x"))); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := b2.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// TestLocalCheckpointLeavesNoTemp ensures the atomic-replace protocol
// cleans up after itself and replaces the snapshot in place.
func TestLocalCheckpointLeavesNoTemp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "persist")
	b, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Checkpoint([]byte(fmt.Sprintf("snap-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp snapshot left behind: %v", err)
	}
	snap, _ := b.ReadSnapshot()
	if string(snap) != "snap-2" {
		t.Fatalf("snapshot = %q", snap)
	}
}

// Only "directory fsync is not supported" is excused; any other failure
// of a directory fsync, EIO above all, must reach the caller, or an
// entry that never reached the disk would be acknowledged as durable.
func TestDirSyncUnsupportedExcusesOnlyUnsupported(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.EINVAL}, true},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.ENOTSUP}, true},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.EIO}, false},
		{&os.PathError{Op: "sync", Path: "d", Err: syscall.ENOSPC}, false},
		{&os.PathError{Op: "open", Path: "d", Err: syscall.ENOENT}, false},
		{errors.New("sync d: input/output error"), false},
	} {
		if got := dirSyncUnsupported(tc.err); got != tc.want {
			t.Errorf("dirSyncUnsupported(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	var l Local
	if err := l.syncDir(t.TempDir(), fsyncSegmentDir); err != nil {
		t.Errorf("syncDir of a fresh directory = %v", err)
	}
	if err := l.syncDir(filepath.Join(t.TempDir(), "missing"), fsyncSegmentDir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("syncDir of a missing directory = %v, want ErrNotExist", err)
	}
}
