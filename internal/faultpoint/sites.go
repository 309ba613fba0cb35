// Site registry: the catalog of fault-injection sites compiled into the
// engine and middleware. This file carries no build tag — both the armed
// (faultinject) and no-op implementations share it, and verdictlint's
// faultsite analyzer checks every Hit/Set*/Clear/Count call site against
// these constants, so a misspelled site name is a build-time diagnostic
// instead of a test that silently tests nothing.
package faultpoint

import "sort"

// Registered fault-injection sites. Naming: <layer>.<operator>.<step>.
const (
	// SiteEngineQuery fires once per query at the top of engine execution.
	SiteEngineQuery = "engine.query"
	// SiteEngineScanChunk fires per chunk on the vectorized scan path.
	SiteEngineScanChunk = "engine.scan.chunk"
	// SiteEngineScanRows fires per morsel on the row-fallback scan path.
	SiteEngineScanRows = "engine.scan.rows"
	// SiteEngineJoinBuild fires per chunk of the input the join hashes.
	SiteEngineJoinBuild = "engine.join.build"
	// SiteEngineJoinProbe fires per chunk of the input the join scans.
	SiteEngineJoinProbe = "engine.join.probe"
	// SiteCoreProgressivePrefix fires per block-prefix in the progressive
	// (online-aggregation) answer loop.
	SiteCoreProgressivePrefix = "core.progressive.prefix"
	// SiteCoreMergePrefix fires while merging per-block partial answers
	// into a prefix answer.
	SiteCoreMergePrefix = "core.merge.prefix"
	// SiteStorageSegmentWrite fires before a segment file is created/written.
	SiteStorageSegmentWrite = "storage.segment.write"
	// SiteStorageSegmentFsync fires before a written segment is fsynced.
	SiteStorageSegmentFsync = "storage.segment.fsync"
	// SiteStorageSegmentRead fires per chunk load from a segment file.
	SiteStorageSegmentRead = "storage.segment.read"
	// SiteStorageSegmentChecksum fires at chunk checksum verification; an
	// injected error is reported as corruption (quarantine path).
	SiteStorageSegmentChecksum = "storage.segment.checksum"
	// SiteStorageManifestWrite fires before a manifest save commits.
	SiteStorageManifestWrite = "storage.manifest.write"
)

// sites is the lookup form of the catalog above.
var sites = map[string]bool{
	SiteEngineQuery:            true,
	SiteEngineScanChunk:        true,
	SiteEngineScanRows:         true,
	SiteEngineJoinBuild:        true,
	SiteEngineJoinProbe:        true,
	SiteCoreProgressivePrefix:  true,
	SiteCoreMergePrefix:        true,
	SiteStorageSegmentWrite:    true,
	SiteStorageSegmentFsync:    true,
	SiteStorageSegmentRead:     true,
	SiteStorageSegmentChecksum: true,
	SiteStorageManifestWrite:   true,
}

// IsSite reports whether name is a registered fault-injection site.
func IsSite(name string) bool { return sites[name] }

// Sites returns the registered site names in sorted order.
func Sites() []string {
	out := make([]string, 0, len(sites))
	for s := range sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// PanicValue is the value injected panics carry, so recovery boundaries
// (and tests) can recognize a synthetic crash. It lives in this untagged
// file so both build configurations expose it.
type PanicValue struct{ Site string }

func (p PanicValue) String() string { return "faultpoint: injected panic at " + p.Site }
