package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/serve"
	"noisyradio/internal/sim"
)

// startDaemon boots the daemon in-process on an ephemeral port with the
// extra flags args, and returns the address it listens on and a stop
// function that sends SIGTERM (NotifyContext catches the self-sent signal
// before the runtime would), waits for the drain and returns the
// daemon's output. The test's cleanup stops a daemon still running.
func startDaemon(t *testing.T, args ...string) (addr string, stop func() string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	done := make(chan error, 1)
	go func() { done <- run(append([]string{"-addr", "127.0.0.1:0", "-drain", "10s"}, args...), f) }()

	// The daemon prints its bound address; poll for it.
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never printed its address")
		}
		time.Sleep(10 * time.Millisecond)
		data, _ := os.ReadFile(path)
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "noisyserved: listening on "); ok {
				addr = strings.TrimSpace(rest)
			}
		}
	}
	stopped := false
	stop = func() string {
		t.Helper()
		if !stopped {
			stopped = true
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("drain exit: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("daemon did not drain within 15s of SIGTERM")
			}
		}
		data, _ := os.ReadFile(path)
		return string(data)
	}
	t.Cleanup(func() { stop() })
	return addr, stop
}

// TestServeSubmitDrain exercises the full daemon lifecycle in-process:
// boot on an ephemeral port, serve a job, then drain cleanly on SIGTERM.
func TestServeSubmitDrain(t *testing.T) {
	addr, stop := startDaemon(t)
	spec := benchreport.JobSpec{
		Schedule: "decay", Topology: "path", N: 24,
		Fault: "receiver", P: 0.3, Seed: 3, Trials: 20,
	}
	res, err := serve.Submit(context.Background(), "http://"+addr, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.N+res.Stats.Dropped != spec.Trials {
		t.Fatalf("job result incomplete: %+v", res.Line)
	}
	if out := stop(); !strings.Contains(out, "drained, bye") {
		t.Fatalf("missing drain confirmation:\n%s", out)
	}
}

// TestServedJobPlansScalar: the daemon runs every trial of a job scalar,
// so the job records only width-1 plans.
func TestServedJobPlansScalar(t *testing.T) {
	addr, _ := startDaemon(t)
	sim.ResetPlanLog()
	defer sim.ResetPlanLog()
	spec := benchreport.JobSpec{
		Schedule: "decay", Topology: "complete", N: 256,
		Fault: "receiver", P: 0.3, Seed: 1, Trials: 32,
	}
	if _, err := serve.Submit(context.Background(), "http://"+addr, spec, nil); err != nil {
		t.Fatal(err)
	}
	plans := sim.PlanLog()
	if len(plans) == 0 {
		t.Fatal("the job recorded no execution plan")
	}
	for _, p := range plans {
		if p.Width != 1 || p.Reason != "scalar" {
			t.Errorf("plan %+v: want width 1, planned scalar", p)
		}
	}
}

// TestFlagValidation pins the usage errors.
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-cache", "0"},
		{"-shards", "2"},        // a job runs as one row; the shard flag is gone
		{"-trialbatch", "auto"}, // the lockstep plane and its flag are gone
	} {
		f, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if runErr := run(args, f); runErr == nil {
			t.Errorf("args %v accepted", args)
		}
		f.Close()
	}
}
