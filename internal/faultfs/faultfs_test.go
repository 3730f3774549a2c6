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
