package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"verdictdb/internal/faultpoint"
)

// Manifest file names inside a data directory.
const (
	ManifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
)

// SegmentExt is the file extension of live segment files.
const SegmentExt = ".seg"

// ColumnDef records one table column in the manifest (Type holds the
// engine's ColType value).
type ColumnDef struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
}

// SegmentRef records one live segment of a table.
type SegmentRef struct {
	File   string `json:"file"` // base name inside the data directory
	Chunks int    `json:"chunks"`
	Rows   int    `json:"rows"`
}

// TableManifest records one table's durable state: its schema, sealed
// segments in chunk order, and the optional tail segment holding the open
// (< chunk-size) row suffix as of the last flush.
type TableManifest struct {
	Name     string       `json:"name"`
	Columns  []ColumnDef  `json:"columns"`
	Segments []SegmentRef `json:"segments,omitempty"`
	Tail     *SegmentRef  `json:"tail,omitempty"`
	// NextGen numbers segment files ("<table>-<gen>.seg"); monotonically
	// increasing so a retried or crashed write never reuses a live name.
	NextGen int64 `json:"nextgen"`
}

// Manifest is the data directory's catalog: which segment files are live
// and how they assemble into tables. Version bumps on every save.
type Manifest struct {
	Version int64            `json:"version"`
	Tables  []*TableManifest `json:"tables,omitempty"`
}

// Table returns the named table's entry, or nil.
func (m *Manifest) Table(name string) *TableManifest {
	for _, t := range m.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// DropTable removes the named table's entry; reports whether it existed.
func (m *Manifest) DropTable(name string) bool {
	for i, t := range m.Tables {
		if t.Name == name {
			m.Tables = append(m.Tables[:i], m.Tables[i+1:]...)
			return true
		}
	}
	return false
}

// LiveFiles returns the set of segment base names the manifest references.
func (m *Manifest) LiveFiles() map[string]bool {
	live := make(map[string]bool)
	for _, t := range m.Tables {
		for _, s := range t.Segments {
			live[s.File] = true
		}
		if t.Tail != nil {
			live[t.Tail.File] = true
		}
	}
	return live
}

// LoadManifest reads dir's manifest. A leftover MANIFEST.tmp (a save that
// crashed before its atomic rename) is removed — the previous committed
// manifest stays authoritative, which is exactly the half-written-manifest
// recovery contract. A missing manifest yields an empty one (fresh
// directory).
func LoadManifest(dir string) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating data directory: %w", err)
	}
	tmp := filepath.Join(dir, manifestTmpName)
	if _, err := os.Stat(tmp); err == nil {
		// Torn save: the temp file may hold anything from zero bytes to a
		// complete-but-unrenamed manifest. Either way the rename never
		// happened, so it was never the committed state.
		if err := os.Remove(tmp); err != nil {
			return nil, fmt.Errorf("storage: removing stale %s: %w", manifestTmpName, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return &Manifest{}, nil
		}
		return nil, fmt.Errorf("storage: reading manifest: %w", err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, &CorruptError{Path: filepath.Join(dir, ManifestName), Detail: err.Error()}
	}
	for i, t := range m.Tables {
		if t == nil {
			return nil, &CorruptError{Path: filepath.Join(dir, ManifestName), Detail: fmt.Sprintf("table %d is null", i)}
		}
	}
	return m, nil
}

// SaveManifest commits m to dir under a bumped version: serialize to
// MANIFEST.tmp, fsync, atomically rename over MANIFEST, then fsync the
// directory so the rename itself is durable. Readers (and crashes) see
// either the old manifest or the new one, never a mixture.
func SaveManifest(dir string, m *Manifest) error {
	if err := faultpoint.Hit(faultpoint.SiteStorageManifestWrite); err != nil {
		return fmt.Errorf("storage: writing manifest: %w", err)
	}
	m.Version++
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		m.Version--
		return fmt.Errorf("storage: encoding manifest: %w", err)
	}
	tmp := filepath.Join(dir, manifestTmpName)
	if err := writeFileSync(tmp, data); err != nil {
		m.Version--
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		m.Version--
		return fmt.Errorf("storage: committing manifest: %w", err)
	}
	syncDir(dir)
	return nil
}

// writeFileSync writes data to path and fsyncs before closing.
func writeFileSync(path string, data []byte) (retErr error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating %s: %w", filepath.Base(path), err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("storage: closing %s: %w", filepath.Base(path), cerr)
		}
	}()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("storage: writing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: syncing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
