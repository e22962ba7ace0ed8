package evr_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun smoke-runs the fast examples end to end and checks for
// their headline output lines.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples take a few seconds each")
	}
	cases := []struct {
		pkg  string
		want string
	}{
		{"./examples/quickstart", "S+H device saving"},
		{"./examples/streaming", "every displayed frame flowed through"},
		{"./examples/quality", "the reduction shrinks with resolution"},
	}
	for _, c := range cases {
		c := c
		t.Run(filepath.Base(c.pkg), func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", c.pkg)
			cmd.Env = os.Environ()
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(3 * time.Minute):
				cmd.Process.Kill()
				t.Fatalf("%s timed out", c.pkg)
			}
			if err != nil {
				t.Fatalf("running %s: %v\n%s", c.pkg, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("%s output missing %q:\n%s", c.pkg, c.want, out)
			}
		})
	}
}
