package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"verdictdb/internal/engine"
	"verdictdb/internal/storage"
)

// storageStats are the storage layer's numbers, taken from outside over the
// data directory disk_cold wrote. Reads here come from the OS page cache
// (the files were just written), so they are sandbox latencies, not a
// device's.
type storageStats struct {
	reopenS      float64 // a fresh engine's AttachDataDir over the populated directory
	readMBPerS   float64 // LoadManifest → OpenSegment → VerifyChecksums → ReadChunk of every chunk
	chunkReadUs  float64 // mean ReadChunk (read + CRC + decode)
	chunks, rows int
}

// dirBytes sums the regular files under root.
func dirBytes(root string) (int64, error) {
	var n int64
	err := filepath.Walk(root, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

// probeStorage runs after the workload's engines are closed, so nothing else
// holds or flushes the directory. wantRows is what the engines held.
func probeStorage(root string, wantRows int) (storageStats, error) {
	var st storageStats
	bytes, err := dirBytes(root)
	if err != nil {
		return st, err
	}

	var readNs, chunkNs int64
	for _, name := range sideNames {
		dir := filepath.Join(root, name)
		t0 := time.Now()
		man, err := storage.LoadManifest(dir)
		if err != nil {
			return st, err
		}
		for _, tm := range man.Tables {
			refs := tm.Segments
			if tm.Tail != nil {
				refs = append(refs[:len(refs):len(refs)], *tm.Tail)
			}
			for _, ref := range refs {
				n, ns, err := readSegment(filepath.Join(dir, ref.File))
				if err != nil {
					return st, err
				}
				st.chunks += n
				chunkNs += ns
			}
		}
		readNs += time.Since(t0).Nanoseconds()

		t0 = time.Now()
		eng := engine.NewSeeded(1)
		rep, err := eng.AttachDataDir(dir)
		if err != nil {
			return st, err
		}
		st.reopenS += time.Since(t0).Seconds()
		st.rows += rep.Rows
		quarantined := len(rep.Quarantined)
		if err := eng.Close(); err != nil {
			return st, err
		}
		if quarantined > 0 {
			return st, fmt.Errorf("reopening %s quarantined %d segments", dir, quarantined)
		}
	}
	if st.rows != wantRows {
		return st, fmt.Errorf("reopen recovered %d rows, the engines held %d", st.rows, wantRows)
	}
	st.readMBPerS = float64(bytes) / 1e6 / (float64(readNs) / 1e9)
	st.chunkReadUs = float64(chunkNs) / 1e3 / float64(st.chunks)
	return st, nil
}

// readSegment opens, verifies and decodes one segment file; it returns the
// chunk count and the time spent inside ReadChunk.
func readSegment(path string) (chunks int, chunkNs int64, err error) {
	seg, err := storage.OpenSegment(path)
	if err != nil {
		return 0, 0, err
	}
	defer seg.Close()
	if err := seg.VerifyChecksums(); err != nil {
		return 0, 0, err
	}
	for i := range seg.Meta.Chunks {
		t0 := time.Now()
		if _, err := seg.ReadChunk(i); err != nil {
			return 0, 0, err
		}
		chunkNs += time.Since(t0).Nanoseconds()
	}
	return len(seg.Meta.Chunks), chunkNs, nil
}
