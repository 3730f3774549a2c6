package faultfs

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// liveView reads name's live view through Open, one byte per Read so the
// cursor crosses the durable/volatile boundary mid-stream.
func liveView(t *testing.T, fs *FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	got, err := io.ReadAll(iotest.OneByteReader(f))
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return got
}

func TestDurableVolatileBands(t *testing.T) {
	fs := New()
	f, err := fs.Create("d/a.wal")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	f.Write([]byte("abc"))
	if got := liveView(t, fs, "d/a.wal"); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("live view = %q", got)
	}
	if d := fs.Durable("d/a.wal"); len(d) != 0 {
		t.Fatalf("unsynced bytes durable: %q", d)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	f.Write([]byte("def"))
	fs.Crash()
	if got := liveView(t, fs, "d/a.wal"); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("post-crash view = %q, want only the synced prefix", got)
	}
}

// TestOpenSpansBands: one read sees the durable band followed by the
// volatile one, a missing file fails, and opens are counted per file.
func TestOpenSpansBands(t *testing.T) {
	fs := New()
	f, _ := fs.Create("a")
	f.Write([]byte("abc"))
	f.Sync()
	f.Write([]byte("def"))
	r, err := fs.Open("a")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("live view = %q, %v", got, err)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
	if n := fs.Opens("a"); n != 1 {
		t.Fatalf("Opens(a) = %d, want 1", n)
	}
	if n := fs.Opens("missing"); n != 0 {
		t.Fatalf("Opens(missing) = %d, want 0", n)
	}
}

func TestTearNextWrite(t *testing.T) {
	fs := New()
	f, _ := fs.Create("a")
	fs.TearNextWrite("a", 2)
	n, err := f.Write([]byte("hello"))
	if !ErrInjected(err) {
		t.Fatalf("err = %v, want injected", err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
	if got := liveView(t, fs, "a"); !bytes.Equal(got, []byte("he")) {
		t.Fatalf("view = %q", got)
	}
	// The fault is one-shot.
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("second write: %v", err)
	}
}

func TestPartialNextSync(t *testing.T) {
	fs := New()
	f, _ := fs.Create("a")
	f.Write([]byte("hello"))
	fs.PartialNextSync("a", 3)
	if err := f.Sync(); !ErrInjected(err) {
		t.Fatalf("err = %v, want injected", err)
	}
	fs.Crash()
	if got := liveView(t, fs, "a"); !bytes.Equal(got, []byte("hel")) {
		t.Fatalf("post-crash view = %q, want partially synced prefix", got)
	}
}

func TestCreateExistsAndReadDir(t *testing.T) {
	fs := New()
	if _, err := fs.Create("d/a"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := fs.Create("d/a"); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	fs.Create("d/b")
	fs.Create("other/c")
	names, err := fs.ReadDir("d")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("ReadDir = %v", names)
	}
	if names, _ := fs.ReadDir("missing"); len(names) != 0 {
		t.Fatalf("missing dir listed %v", names)
	}
}

func TestSetFileInstallsDurably(t *testing.T) {
	fs := New()
	f, _ := fs.Create("a")
	f.Write([]byte("volatile"))
	fs.SetFile("a", []byte("xy"))
	fs.Crash()
	if got := liveView(t, fs, "a"); !bytes.Equal(got, []byte("xy")) {
		t.Fatalf("view = %q", got)
	}
}

func TestClosedHandle(t *testing.T) {
	fs := New()
	f, _ := fs.Create("a")
	f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write on closed handle succeeded")
	}
	if err := f.Sync(); err == nil {
		t.Fatal("sync on closed handle succeeded")
	}
}

// TestRemoveIsNotDurableUntilPersisted: an unlink takes effect in the live
// view at once — the name is free again — but a crash brings the file back
// with its durable bytes unless the unlinks were persisted first.
func TestRemoveIsNotDurableUntilPersisted(t *testing.T) {
	fs := New()
	for _, name := range []string{"d/a", "d/b"} {
		f, _ := fs.Create(name)
		f.Write([]byte(name))
		f.Sync()
		f.Write([]byte("-unsynced"))
	}
	if err := fs.Remove("d/a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := fs.Remove("d/a"); err == nil {
		t.Fatal("removing a removed file succeeded")
	}
	if _, err := fs.Open("d/a"); err == nil {
		t.Fatal("a removed file opens")
	}
	if names, _ := fs.ReadDir("d"); len(names) != 1 || names[0] != "b" {
		t.Fatalf("ReadDir after remove = %v", names)
	}
	if d := fs.Durable("d/a"); string(d) != "d/a" {
		t.Fatalf("post-crash image of the unlinked file = %q", d)
	}
	fs.Crash()
	if got := liveView(t, fs, "d/a"); string(got) != "d/a" {
		t.Fatalf("after the crash the unlinked file holds %q, want its durable bytes back", got)
	}

	fs.Remove("d/a")
	fs.Remove("d/b")
	if _, err := fs.Create("d/b"); err != nil {
		t.Fatalf("Create over a removed name: %v", err)
	}
	fs.PersistRemoves()
	fs.Crash()
	if names, _ := fs.ReadDir("d"); len(names) != 1 || names[0] != "b" {
		t.Fatalf("after persisted unlinks and a crash: %v, want only the re-created b", names)
	}
	if d := fs.Durable("d/b"); len(d) != 0 {
		t.Fatalf("the re-created file inherited %q", d)
	}
}

// TestFailAfter: the armed number of mutating operations go through, every
// later one fails and changes nothing, and a crash disarms it.
func TestFailAfter(t *testing.T) {
	fs := New()
	f, _ := fs.Create("a")
	f.Write([]byte("one"))
	f.Sync()
	if fs.Ops() != 3 {
		t.Fatalf("Ops = %d after create, write, sync", fs.Ops())
	}
	fs.FailAfter(1)
	if _, err := f.Write([]byte("two")); err != nil {
		t.Fatalf("the one allowed operation failed: %v", err)
	}
	if err := f.Sync(); !ErrInjected(err) {
		t.Fatalf("Sync past the crash point: %v", err)
	}
	if _, err := f.Write([]byte("three")); !ErrInjected(err) {
		t.Fatalf("Write past the crash point: %v", err)
	}
	if _, err := fs.Create("b"); !ErrInjected(err) {
		t.Fatalf("Create past the crash point: %v", err)
	}
	if err := fs.Remove("a"); !ErrInjected(err) {
		t.Fatalf("Remove past the crash point: %v", err)
	}
	if fs.Ops() != 4 {
		t.Fatalf("Ops = %d, failed operations were counted", fs.Ops())
	}
	if got := liveView(t, fs, "a"); string(got) != "onetwo" {
		t.Fatalf("live view = %q", got)
	}
	fs.Crash()
	if got := liveView(t, fs, "a"); string(got) != "one" {
		t.Fatalf("post-crash view = %q", got)
	}
	if _, err := fs.Create("b"); err != nil {
		t.Fatalf("Create after the crash disarmed the fault: %v", err)
	}
}
