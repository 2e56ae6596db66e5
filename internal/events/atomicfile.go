package events

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// WriteFileAtomic writes a file so that a crash at any point leaves either
// the previous content or the complete new content at path — never a
// truncated or empty file. The write callback streams into a temp file in
// the target directory; the temp file is fsynced, closed, renamed into
// place, and the parent directory is fsynced so the rename itself survives
// a power loss. Checkpoints and the shutdown model snapshot (model.snap)
// both go through this helper: a rename without the two fsyncs is only
// atomic against process crashes, not machine crashes.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tmpSuffix)
	if err != nil {
		return fmt.Errorf("events: atomic write %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("events: atomic write %s: %w", path, err)
	}
	// Data must be on disk before the rename publishes the file: rename
	// then crash must not expose a name pointing at unwritten blocks.
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("events: atomic write %s: fsync: %w", path, err)
	}
	// CreateTemp creates 0600; published files follow the journal's 0644.
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("events: atomic write %s: chmod: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("events: atomic write %s: close: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("events: atomic write %s: rename: %w", path, err)
	}
	if err = syncDir(dir); err != nil {
		return fmt.Errorf("events: atomic write %s: %w", path, err)
	}
	return nil
}

// tmpSuffix marks in-flight atomic writes; see removeStrayTemps.
const tmpSuffix = ".tmp-"

// syncDir fsyncs a directory so a just-created or just-renamed entry in it
// survives a machine crash. On platforms where directories cannot be
// fsynced (notably Windows) it is a no-op.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir: %w", err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("fsync dir: %w", syncErr)
	}
	return closeErr
}
