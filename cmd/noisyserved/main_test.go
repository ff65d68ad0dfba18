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
)

// TestServeSubmitDrain exercises the full daemon lifecycle in-process:
// boot on an ephemeral port, serve a job, then drain cleanly on SIGTERM
// (NotifyContext catches the self-sent signal before the runtime would).
func TestServeSubmitDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-drain", "10s"}, f) }()

	// The daemon prints its bound address; poll for it.
	var addr string
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
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "drained, bye") {
		t.Fatalf("missing drain confirmation:\n%s", data)
	}
}

// TestFlagValidation pins the usage errors.
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-cache", "0"},
		{"-shards", "-1"},
		{"-trialbatch", "bogus"},
		{"-trialbatch", "-2"},
		{"-trialbatch", "8abc"},
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
