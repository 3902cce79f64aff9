package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The durable-file mechanics every log and snapshot in the program shares:
// the store's WAL and snapshot, the job log (internal/jobs), and deployment
// snapshots (internal/snapshot). The record formats differ; opening a log,
// replaying it with torn-tail truncation, and installing a file atomically
// are written once, here.

// OpenLog opens the log at path for appending, creating it and writing its
// header (fsynced) on first use.
func OpenLog(path string, magic [8]byte) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err == nil && st.Size() == 0 {
		if _, err = f.Write(EncodeHeader(magic)); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	return f, nil
}

// ReplayLog replays the log at path, which OpenLog wrote. A missing or
// empty file is an empty log, and a file shorter than its header is
// truncated to empty: the process died writing the header, before anything
// was acknowledged. A wrong magic or version is an error, naming the log by
// what. Otherwise next decodes the records in order, each call returning
// the size of the record at the front of rest; at its first error the file
// is truncated there, as a torn tail. ReplayLog returns the number of bytes
// it dropped.
func ReplayLog(path string, magic [8]byte, what string, next func(rest []byte) (int, error)) (torn int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading %s: %w", what, err)
	}
	end := 0 // offset past the last whole record
	if len(data) >= headerSize {
		if err := checkHeader(data, magic, what); err != nil {
			return 0, err
		}
		end = headerSize
		for end < len(data) {
			n, err := next(data[end:])
			if err != nil {
				break
			}
			end += n
		}
	}
	if end < len(data) {
		if err := os.Truncate(path, int64(end)); err != nil {
			return 0, fmt.Errorf("store: truncating torn %s tail: %w", what, err)
		}
	}
	return int64(len(data) - end), nil
}

// WriteAtomic installs a file at path: write fills path+".tmp", which is
// fsynced, closed and renamed over path, and the directory is fsynced so
// the rename survives power loss. A crash at any instant leaves either the
// old file or the new one, never a mix; on failure the temp file is
// removed. An error from write is returned as it is.
func WriteAtomic(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", tmp, err)
	}
	err = write(f)
	if err == nil {
		if err = f.Sync(); err == nil {
			err = f.Close()
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			err = fmt.Errorf("store: installing %s: %w", path, err)
		}
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: dir fsync: %w", err)
	}
	return nil
}
