package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// The two-process crash harness: the parent test runs a live primary
// and repeatedly SIGKILLs a real follower process mid-stream — no
// deferred cleanups, no flushed buffers, exactly what a machine losing
// power does — then restarts it and finally proves the mirror is
// bit-identical to the primary. The follower child is this same test
// binary re-exec'd with SSR_REPLICA_CHILD set.

const (
	childEnv   = "SSR_REPLICA_CHILD"
	primaryEnv = "SSR_REPLICA_PRIMARY"
	dirEnv     = "SSR_REPLICA_DIR"
	statusEnv  = "SSR_REPLICA_STATUS"
)

// TestFollowerChildProcess is the child's main: not a test of its own
// (it skips under normal runs), but the body of the re-exec'd follower.
func TestFollowerChildProcess(t *testing.T) {
	if os.Getenv(childEnv) == "" {
		t.Skip("helper process body; run via TestTwoProcessCrashResume")
	}
	opt := fastFollowerOptions(os.Getenv(dirEnv), os.Getenv(primaryEnv))
	f, err := StartFollower(context.Background(), opt)
	if err != nil {
		t.Fatalf("child: starting follower: %v", err)
	}
	statusPath := os.Getenv(statusEnv)
	for {
		st := f.Status()
		body, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("child: encoding status: %v", err)
		}
		tmp := statusPath + ".tmp"
		if err := os.WriteFile(tmp, body, 0o644); err != nil {
			t.Fatalf("child: writing status: %v", err)
		}
		if err := os.Rename(tmp, statusPath); err != nil {
			t.Fatalf("child: publishing status: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
		// Runs until SIGKILLed by the parent; the -timeout backstop covers
		// an orphaned child.
	}
}

func TestTwoProcessCrashResume(t *testing.T) {
	if os.Getenv(childEnv) != "" {
		t.Skip("child processes run only the helper body")
	}
	if testing.Short() {
		t.Skip("two-process harness; skipped under -short")
	}

	primary, srv := startPrimary(t, 2, 30)
	followerDir := filepath.Join(t.TempDir(), "mirror")
	statusPath := filepath.Join(t.TempDir(), "status.json")

	spawn := func() *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestFollowerChildProcess$", "-test.timeout", "2m")
		cmd.Env = append(os.Environ(),
			childEnv+"=1",
			primaryEnv+"="+srv.URL,
			dirEnv+"="+followerDir,
			statusEnv+"="+statusPath,
		)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning follower child: %v", err)
		}
		return cmd
	}
	childStatus := func() (FollowerStatus, bool) {
		body, err := os.ReadFile(statusPath)
		if err != nil {
			return FollowerStatus{}, false
		}
		var st FollowerStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return FollowerStatus{}, false
		}
		return st, true
	}
	waitChildCaughtUp := func(round int) {
		t.Helper()
		waitFor(t, fmt.Sprintf("round %d child catch-up", round), func() bool {
			st, ok := childStatus()
			return ok && st.Connected && st.CaughtUp && st.LagBytes == 0 && primary.Len() >= 0
		})
	}

	next := 1000
	for round := 0; round < 4; round++ {
		if err := os.Remove(statusPath); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		cmd := spawn()

		// Mutate while the child streams, with a rotation in round 1 and a
		// retune (forcing the child through a full resync) in round 2.
		mutate(t, primary, next, 40)
		next += 50
		switch round {
		case 1:
			if err := primary.Checkpoint(); err != nil {
				t.Fatalf("round %d: checkpoint: %v", round, err)
			}
			mutate(t, primary, next, 10)
			next += 20
		case 2:
			if _, err := primary.Retune(); err != nil {
				t.Fatalf("round %d: retune: %v", round, err)
			}
		}
		waitChildCaughtUp(round)

		// More writes, then SIGKILL mid-flight — no grace, no flush.
		done := make(chan struct{})
		go func() {
			defer close(done)
			mutate(t, primary, next, 30)
		}()
		time.Sleep(time.Duration(3+round*7) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatalf("round %d: killing child: %v", round, err)
		}
		err := cmd.Wait()
		if ee, ok := err.(*exec.ExitError); !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
			t.Fatalf("round %d: child exit: %v (want SIGKILL)", round, err)
		}
		<-done
		next += 40
	}

	// Final act: open the many-times-killed mirror in-process and prove
	// bit-identical convergence.
	f, err := StartFollower(context.Background(), fastFollowerOptions(followerDir, srv.URL))
	if err != nil {
		t.Fatalf("final open of crashed mirror: %v", err)
	}
	defer f.Close()
	waitMirrored(t, f, primary)
	requireEqualState(t, primary, f.Index())
}
