package main

import (
	"errors"
	"flag"
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
