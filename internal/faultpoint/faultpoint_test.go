package faultpoint

import (
	"errors"
	"testing"
)

// TestSiteRegistry requires every Site constant to have one distinct name
// that VERDICT_FAULTPOINTS resolves back to it.
func TestSiteRegistry(t *testing.T) {
	seen := map[string]bool{}
	for s := Site(0); s < NumSites; s++ {
		name := s.String()
		if name == "" || seen[name] {
			t.Errorf("site %d: name %q is empty or taken", s, name)
		}
		seen[name] = true
		if got, ok := siteNamed(name); !ok || got != s {
			t.Errorf("siteNamed(%q) = %d, %v; want %d", name, got, ok, s)
		}
	}
	if _, ok := siteNamed("engine.qury"); ok {
		t.Error("an unregistered name resolved to a site")
	}
}

// TestHitFiresOnlyWhenEnabled arms a site: Hit returns the armed error and
// counts only under the faultinject tag, and is a no-op otherwise.
func TestHitFiresOnlyWhenEnabled(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	SetError(SiteEngineQuery, boom)
	if err := Hit(SiteEngineQuery); (err == boom) != enabled {
		t.Fatalf("Hit = %v with enabled = %v", err, enabled)
	}
	want := int64(0)
	if enabled {
		want = 1
	}
	if got := Count(SiteEngineQuery); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	Clear(SiteEngineQuery)
	if err := Hit(SiteEngineQuery); err != nil {
		t.Fatalf("Hit after Clear = %v", err)
	}
}
