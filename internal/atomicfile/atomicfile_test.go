package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	want := []byte(`{"ok":true}` + "\n")
	if err := WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestWriteFileReplacesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("got %q, want \"new\"", got)
	}
}

func TestWriteFileLeavesNoTempOnFailure(t *testing.T) {
	dir := t.TempDir()
	// Writing into a missing directory fails before any temp file lands
	// next to the target.
	if err := WriteFile(filepath.Join(dir, "missing", "out"), []byte("x"), 0o644); err == nil {
		t.Fatal("expected error for missing directory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
}

// A callback that fails leaves the previous file in place and no temp
// file behind; one that succeeds may overwrite what it wrote earlier.
func TestWriteCallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.ckpt")
	if err := WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, 0o644, func(f *os.File) error {
		if _, err := f.Write([]byte("half")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing callback: %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("after a failed write: %q (%v), want the old contents", got, err)
	}
	if err := Write(path, 0o600, func(f *os.File) error {
		if _, err := f.Write([]byte("xxxx-body")); err != nil {
			return err
		}
		_, err := f.WriteAt([]byte("head"), 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "head-body" {
		t.Fatalf("got %q (%v), want %q", got, err, "head-body")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Errorf("mode %v, want 0600", fi.Mode().Perm())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the target", len(entries))
	}
}
