// Package faultpoint is a deterministic fault-injection hook for the
// robustness test suite: named sites in the engine's scan/join paths and
// the middleware's merge/progressive paths call Hit, and tests arm a site
// to panic, stall, or return an error on that exact call. Faults fire only
// under the "faultinject" build tag (`go test -tags faultinject`), which
// sets the constant enabled; both builds compile the functions below, and
// without the tag Hit is an inlined no-op, so production code pays nothing
// for the hooks.
//
// Under the tag, sites can also be armed from the environment without test
// code, e.g.:
//
//	VERDICT_FAULTPOINTS="engine.scan.chunk=panic,engine.join.probe=stall:50ms"
//
// The site catalog lives in sites.go and the README's Robustness section.
package faultpoint

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

type mode uint8

const (
	modeOff mode = iota
	modePanic
	modeError
	modeStall
)

type fault struct {
	mode  mode
	err   error
	stall time.Duration
}

var (
	mu     sync.Mutex
	armed  [NumSites]fault
	counts [NumSites]int64
)

func init() {
	// VERDICT_FAULTPOINTS="site=panic,site=error:msg,site=stall:50ms"
	spec := os.Getenv("VERDICT_FAULTPOINTS")
	if !enabled || spec == "" {
		return
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, action, ok := strings.Cut(part, "=")
		if !ok {
			panic(fmt.Sprintf("faultpoint: bad VERDICT_FAULTPOINTS entry %q", part))
		}
		site, ok := siteNamed(name)
		if !ok {
			panic(fmt.Sprintf("faultpoint: unknown site %q (known: %v)", name, siteNames))
		}
		kind, arg, _ := strings.Cut(action, ":")
		switch kind {
		case "panic":
			SetPanic(site)
		case "error":
			if arg == "" {
				arg = "injected error at " + name
			}
			SetError(site, errors.New("faultpoint: "+arg))
		case "stall":
			d, err := time.ParseDuration(arg)
			if err != nil {
				panic(fmt.Sprintf("faultpoint: bad stall duration %q: %v", arg, err))
			}
			SetStall(site, d)
		default:
			panic(fmt.Sprintf("faultpoint: unknown fault kind %q in %q", kind, part))
		}
	}
}

// Enabled reports whether fault injection is compiled in.
func Enabled() bool { return enabled }

// Hit marks one execution of site, firing whatever fault is armed there:
// panics for SetPanic, sleeps for SetStall, the armed error for SetError
// (nil when the site is disarmed). Without the faultinject build tag it
// does nothing.
func Hit(s Site) error {
	if !enabled {
		return nil
	}
	return hit(s)
}

func hit(s Site) error {
	mu.Lock()
	counts[s]++
	f := armed[s]
	mu.Unlock()
	switch f.mode {
	case modePanic:
		panic(PanicValue{Site: s})
	case modeStall:
		time.Sleep(f.stall)
	case modeError:
		return f.err
	}
	return nil
}

// SetPanic arms site to panic (with a PanicValue) on every Hit.
func SetPanic(s Site) { set(s, fault{mode: modePanic}) }

// SetError arms site to return err from every Hit.
func SetError(s Site, err error) { set(s, fault{mode: modeError, err: err}) }

// SetStall arms site to sleep d on every Hit.
func SetStall(s Site, d time.Duration) { set(s, fault{mode: modeStall, stall: d}) }

// Clear disarms one site (hit counts are kept).
func Clear(s Site) { set(s, fault{}) }

func set(s Site, f fault) {
	mu.Lock()
	armed[s] = f
	mu.Unlock()
}

// Reset disarms every site and zeroes hit counts.
func Reset() {
	mu.Lock()
	armed = [NumSites]fault{}
	counts = [NumSites]int64{}
	mu.Unlock()
}

// Count reports how many times site has been hit since the last Reset.
func Count(s Site) int64 {
	mu.Lock()
	defer mu.Unlock()
	return counts[s]
}
