package main

import (
	"bytes"
	"errors"
	"flag"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestRunHelpListsDeploymentFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(buf.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{"addr", "backends", "drain", "edge-cache-bytes", "replication"}
	if !slices.Equal(got, want) {
		t.Errorf("-h lists %v, want %v\n%s", got, want, buf.String())
	}
}

func TestRunRejectsRemovedFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-backends", "http://127.0.0.1:1", "-max-retries", "2"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "max-retries") {
		t.Fatalf("run with -max-retries = %v, want an undefined-flag error", err)
	}
}

func TestRunRequiresBackends(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{nil, {"-backends", " , "}} {
		if err := run(args, &buf); err == nil || !strings.Contains(err.Error(), "-backends is required") {
			t.Errorf("run(%q) = %v, want the missing -backends error", args, err)
		}
	}
}
