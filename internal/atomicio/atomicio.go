// Package atomicio writes artifact files atomically: content goes to a
// temporary file in the destination directory and reaches the final
// path only through rename(2). A process killed mid-write can therefore
// never leave a truncated CSV, JSON, or manifest that parses as a
// complete result — the destination either holds the previous complete
// file or the new complete file, and failed writes leave no temp
// droppings behind.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data. It is the drop-in
// crash-safe counterpart of os.WriteFile.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteTo(path, perm, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// EnsureDir verifies that path can serve as a writable directory,
// creating it (and parents) if absent. A path that exists but is not a
// directory is a configuration error — the flag-validation paths of
// the CLIs call this so a -cache pointing at a regular file fails
// loudly before any computation starts, not after.
func EnsureDir(path string) error {
	st, err := os.Stat(path)
	switch {
	case err == nil:
		if !st.IsDir() {
			return fmt.Errorf("atomicio: %s exists and is not a directory", path)
		}
		return nil
	case os.IsNotExist(err):
		if err := os.MkdirAll(path, 0o755); err != nil {
			return fmt.Errorf("atomicio: create directory %s: %w", path, err)
		}
		return nil
	default:
		return fmt.Errorf("atomicio: stat %s: %w", path, err)
	}
}

// WriteTo atomically replaces path with whatever fn streams into its
// writer. If fn (or any filesystem step) fails, the destination is left
// untouched and the temporary file is removed.
func WriteTo(path string, perm os.FileMode, fn func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: create temp for %s: %w", path, err)
	}
	tmpPath := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	if err = fn(tmp); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err = tmp.Chmod(perm); err != nil {
		return fmt.Errorf("atomicio: chmod %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if err = os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("atomicio: rename into %s: %w", path, err)
	}
	return nil
}
