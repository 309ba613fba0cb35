package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -exp or -engine is refused before anything loads: exit status
// 2, and the valid names on stderr.
func TestUnknownNamesExit2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchrunner")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus"}, "valid: speedup, correctness, engine, progressive, all"},
		{[]string{"-exp", "speedup", "-engine", "bogus"}, "valid: impala, sparksql, redshift, generic, all"},
	} {
		var stderr strings.Builder
		cmd := exec.Command(bin, c.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2", c.args, err)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q, want it to list %q", c.args, stderr.String(), c.want)
		}
	}
}
