package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPersistenceFlagValidation pins the loud flag-time failures of
// the persistence options (see cmd/figures for the same table): a
// mistyped path must fail before any simulation state is built.
//
// The -checkpoint and -resume flags went away with the checkpoint
// store (-cache persists and resumes on its own). Invocations that
// still pass them must fail at parse time, never run without
// persistence.
func TestPersistenceFlagValidation(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{
			name:    "resume without checkpoint",
			args:    []string{"-resume"},
			wantErr: "flag provided but not defined: -resume",
		},
		{
			name:    "checkpoint at a regular file",
			args:    []string{"-checkpoint", file},
			wantErr: "flag provided but not defined: -checkpoint",
		},
		{
			name:    "cache at a regular file",
			args:    []string{"-cache", file},
			wantErr: "not a directory",
		},
		{
			name:    "checkpoint and cache together",
			args:    []string{"-checkpoint", t.TempDir(), "-cache", t.TempDir()},
			wantErr: "flag provided but not defined: -checkpoint",
		},
		{
			name:    "cache with a baseline protocol",
			args:    []string{"-protocol", "epidemic", "-cache", t.TempDir()},
			wantErr: "only the synthetic-graph onion protocol",
		},
		{
			name:    "non-positive lease ttl",
			args:    []string{"-cache", t.TempDir(), "-lease-ttl", "0s"},
			wantErr: "-lease-ttl must be positive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v; want substring %q", err, tc.wantErr)
			}
		})
	}
}
