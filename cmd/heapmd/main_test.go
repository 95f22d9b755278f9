package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heapmd/internal/heapgraph"
)

// TestConnectivityFlagsDefaultIncremental: with neither flag given,
// both component metrics use the incremental trackers.
func TestConnectivityFlagsDefaultIncremental(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := addConnectivityFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	conn, scc, err := f.modes()
	if err != nil {
		t.Fatal(err)
	}
	if conn != heapgraph.ConnectivityIncremental || scc != heapgraph.ConnectivityIncremental {
		t.Fatalf("defaults = %v/%v, want incremental/incremental", conn, scc)
	}
	for _, args := range [][]string{
		{"-connectivity", "verify"},
		{"-scc", "verify"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := addConnectivityFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		conn, scc, err := f.modes()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if (conn == heapgraph.ConnectivityVerify) != (args[0] == "-connectivity") ||
			(scc == heapgraph.ConnectivityVerify) != (args[0] == "-scc") {
			t.Fatalf("%v resolved to %v/%v", args, conn, scc)
		}
	}
}

// TestConnectivityFlagsRejected: every subcommand that takes the
// connectivity flags refuses "snapshot" and unknown values before
// doing any work.
func TestConnectivityFlagsRejected(t *testing.T) {
	cmds := map[string]func([]string) error{
		"soak": cmdSoak, "train": cmdTrain, "check": cmdCheck, "replay": cmdReplay,
	}
	for name, run := range cmds {
		for _, fl := range []string{"connectivity", "scc"} {
			for _, val := range []string{"snapshot", "bogus"} {
				err := run([]string{"-" + fl, val})
				if err == nil {
					t.Fatalf("%s -%s %s: accepted", name, fl, val)
				}
				if !strings.Contains(err.Error(), "mode") || !strings.Contains(err.Error(), val) {
					t.Errorf("%s -%s %s: error %q does not name the bad mode", name, fl, val, err)
				}
			}
		}
	}
}

// TestMetricWorkersFlagGone: replay has no -metric-workers flag, so
// passing one is a usage error.
func TestMetricWorkersFlagGone(t *testing.T) {
	err := cmdReplay([]string{"-metric-workers", "2"})
	var uerr usageError
	if !errors.As(err, &uerr) || !strings.Contains(err.Error(), "metric-workers") {
		t.Fatalf("cmdReplay(-metric-workers 2) = %v, want an undefined-flag usage error", err)
	}
}

// TestIngestWorkersFlagGone: the speculative ingest stage is gone, so
// -ingest-workers is an undefined flag (exit status 2) everywhere it
// used to be accepted.
func TestIngestWorkersFlagGone(t *testing.T) {
	cmds := map[string]func([]string) error{
		"soak": cmdSoak, "train": cmdTrain, "check": cmdCheck, "replay": cmdReplay,
	}
	for name, run := range cmds {
		err := run([]string{"-ingest-workers", "2"})
		var uerr usageError
		if !errors.As(err, &uerr) || !strings.Contains(err.Error(), "ingest-workers") {
			t.Errorf("%s -ingest-workers 2 = %v, want an undefined-flag usage error", name, err)
		}
	}
}

// TestReplayDecodeAliasesGone: -readahead and -pipelined were aliases
// for -decode-workers settings; replay no longer accepts them.
func TestReplayDecodeAliasesGone(t *testing.T) {
	for _, args := range [][]string{{"-readahead"}, {"-readahead=false"}, {"-pipelined"}} {
		err := cmdReplay(args)
		var uerr usageError
		name := strings.TrimPrefix(strings.SplitN(args[0], "=", 2)[0], "-")
		if !errors.As(err, &uerr) || !strings.Contains(err.Error(), name) {
			t.Errorf("replay %v = %v, want an undefined-flag usage error", args, err)
		}
	}
}

// TestDecodeWorkerFlagsGone: trace decoding and encoding run on the
// calling goroutine, so -decode-workers (replay) and -trace-workers
// (train, check) are undefined flags, and passing one is a usage error.
func TestDecodeWorkerFlagsGone(t *testing.T) {
	cmds := map[string]func([]string) error{
		"train": cmdTrain, "check": cmdCheck, "replay": cmdReplay,
	}
	for _, tc := range []struct {
		flag string
		cmds []string
	}{
		{"decode-workers", []string{"replay"}},
		{"trace-workers", []string{"train", "check"}},
	} {
		for _, name := range tc.cmds {
			err := cmds[name]([]string{"-" + tc.flag, "2"})
			var uerr usageError
			if !errors.As(err, &uerr) || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("%s -%s 2 = %v, want an undefined-flag usage error", name, tc.flag, err)
			}
		}
	}
}

// TestReplayOutputHasNoIngestLine records traces with train, replays
// them, and checks the per-trace summaries are there and the old
// "ingest pipeline:" and "decode pipeline:" lines are not.
func TestReplayOutputHasNoIngestLine(t *testing.T) {
	dir := t.TempDir()
	traces := filepath.Join(dir, "tr")
	if _, err := captureStdout(t, func() error {
		return cmdTrain([]string{"-workload", "vortex", "-inputs", "2", "-parallel", "1",
			"-record-traces", traces, "-o", filepath.Join(dir, "vortex.model")})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return cmdReplay([]string{"-trace", traces})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "replayed ") != 3 {
		t.Errorf("want two per-trace lines and a total:\n%s", out)
	}
	for _, line := range []string{"ingest pipeline:", "decode pipeline:"} {
		if strings.Contains(out, line) {
			t.Errorf("output still has a %q line:\n%s", line, out)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	ferr := fn()
	w.Close()
	return <-done, ferr
}
