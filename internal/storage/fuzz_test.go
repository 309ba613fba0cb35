package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentFooter feeds arbitrary bytes to the footer parse, typed zone
// bounds included: it fails with a *CorruptError, or every bound it decoded
// is one a zone compares — a NULL, int, float, string or bool — and writes
// back as the bytes it was read from.
func FuzzSegmentFooter(f *testing.F) {
	dir := f.TempDir()
	for i, n := range testSizes {
		path := filepath.Join(dir, fmt.Sprintf("seed%d%s", i, SegmentExt))
		if err := WriteSegment(path, len(matrixChunk(n).Cols), []*Chunk{matrixChunk(n)}); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	if b, err := os.ReadFile(filepath.Join("testdata", "v1.seg")); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := &Segment{Path: "fuzz.seg", data: b, size: int64(len(b))}
		if err := s.parseFooter(); err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("parseFooter: %v, want *CorruptError", err)
			}
			return
		}
		for i := range s.Meta.Chunks {
			for j := range s.Meta.Chunks[i].Cols {
				z := s.Meta.Chunks[i].Cols[j].Zone
				enc, err := appendBound(nil, &z, 0)
				if err == nil {
					enc, err = appendBound(enc, &z, 1)
				}
				var back Zone
				r := &byteReader{b: enc}
				r.bound(&back, 0)
				r.bound(&back, 1)
				if err != nil || r.err != nil || back.Kinds != z.Kinds || back.Num != z.Num || back.Str(0) != z.Str(0) ||
					back.Str(1) != z.Str(1) || z.Kinds[0] > KindString || z.Kinds[1] > KindString {
					t.Fatalf("chunk %d column %d: zone %+v does not round-trip (%v, %v)", i, j, z, err, r.err)
				}
			}
		}
	})
}

// FuzzLoadManifest feeds arbitrary bytes to LoadManifest as a data
// directory's manifest: it fails with a *CorruptError, or what it loaded
// saves and loads back the same.
func FuzzLoadManifest(f *testing.F) {
	f.Add([]byte(`{"version":3,"tables":[{"name":"t","columns":[{"name":"a","type":2}],` +
		`"segments":[{"file":"t-1.seg","chunks":2,"rows":512}],"tail":{"file":"t-2.seg","chunks":1,"rows":7},"nextgen":3}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"tables":[null]}`))
	f.Add([]byte(`{"version":`))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(dir)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("LoadManifest: %v, want *CorruptError", err)
			}
			return
		}
		m.LiveFiles()
		if err := SaveManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		back, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(m)
		if got, _ := json.Marshal(back); string(got) != string(want) {
			t.Fatalf("saved %s, loaded back %s", want, got)
		}
	})
}
