// Package atomicfile provides crash-safe file writes: data lands in a
// temporary file in the destination directory, is fsynced, and is then
// renamed over the target. Readers never observe a truncated artifact —
// either the old file (or nothing) or the complete new contents. Every
// results writer in the repo (-json, -record-trace, benchmark JSON,
// checkpoints) goes through this helper so a crash or SIGKILL at any
// instant cannot leave a half-written file behind.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data. The temporary file is
// created in path's directory (rename is only atomic within one
// filesystem) and removed on any failure.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return Write(path, perm, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// Write atomically replaces path with what write writes to the
// temporary file, for contents too large to build in memory first.
// write may seek or write at offsets; the file is synced, given perm
// and renamed over path only when write returns nil.
func Write(path string, perm os.FileMode, write func(f *os.File) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := write(tmp); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	return nil
}
