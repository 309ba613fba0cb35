// Site registry: the catalog of fault-injection sites compiled into the
// engine and middleware. A site is a Site constant, not a string, so a
// misspelled site does not compile; VERDICT_FAULTPOINTS names are looked up
// in siteNames.
package faultpoint

// Site is one registered fault-injection site.
type Site uint8

// Registered fault-injection sites. Naming: <layer>.<operator>.<step>.
const (
	// SiteEngineQuery fires once per query at the top of engine execution.
	SiteEngineQuery Site = iota
	// SiteEngineScanChunk fires per chunk on the vectorized scan path.
	SiteEngineScanChunk
	// SiteEngineScanRows fires per morsel on the row-fallback scan path.
	SiteEngineScanRows
	// SiteEngineJoinBuild fires per chunk of the input the join hashes.
	SiteEngineJoinBuild
	// SiteEngineJoinProbe fires per chunk of the input the join scans.
	SiteEngineJoinProbe
	// SiteCoreProgressivePrefix fires per block-prefix in the progressive
	// (online-aggregation) answer loop.
	SiteCoreProgressivePrefix
	// SiteCoreMergePrefix fires while merging per-block partial answers
	// into a prefix answer.
	SiteCoreMergePrefix
	// SiteStorageSegmentWrite fires before a segment file is created/written.
	SiteStorageSegmentWrite
	// SiteStorageSegmentFsync fires before a written segment is fsynced.
	SiteStorageSegmentFsync
	// SiteStorageSegmentRead fires per chunk load from a segment file.
	SiteStorageSegmentRead
	// SiteStorageSegmentChecksum fires at chunk checksum verification; an
	// injected error is reported as corruption (quarantine path).
	SiteStorageSegmentChecksum
	// SiteStorageManifestWrite fires before a manifest save commits.
	SiteStorageManifestWrite

	// NumSites is the number of registered sites: every Site is below it.
	NumSites
)

var siteNames = [NumSites]string{
	SiteEngineQuery:            "engine.query",
	SiteEngineScanChunk:        "engine.scan.chunk",
	SiteEngineScanRows:         "engine.scan.rows",
	SiteEngineJoinBuild:        "engine.join.build",
	SiteEngineJoinProbe:        "engine.join.probe",
	SiteCoreProgressivePrefix:  "core.progressive.prefix",
	SiteCoreMergePrefix:        "core.merge.prefix",
	SiteStorageSegmentWrite:    "storage.segment.write",
	SiteStorageSegmentFsync:    "storage.segment.fsync",
	SiteStorageSegmentRead:     "storage.segment.read",
	SiteStorageSegmentChecksum: "storage.segment.checksum",
	SiteStorageManifestWrite:   "storage.manifest.write",
}

// String returns the site's registered name.
func (s Site) String() string { return siteNames[s] }

// siteNamed returns the site registered under name.
func siteNamed(name string) (Site, bool) {
	for s, n := range siteNames {
		if n == name {
			return Site(s), true
		}
	}
	return 0, false
}

// PanicValue is the value injected panics carry, so recovery boundaries
// (and tests) can recognize a synthetic crash.
type PanicValue struct{ Site Site }

func (p PanicValue) String() string { return "faultpoint: injected panic at " + p.Site.String() }
