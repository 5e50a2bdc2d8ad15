package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPersistenceFlagValidation pins the loud flag-time failures of
// the persistence options: they must reject before any trial runs, so
// a mistyped path never silently computes without persistence.
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
			args:    []string{"-fig", "fig06", "-resume"},
			wantErr: "flag provided but not defined: -resume",
		},
		{
			name:    "checkpoint at a regular file",
			args:    []string{"-fig", "fig06", "-checkpoint", file},
			wantErr: "flag provided but not defined: -checkpoint",
		},
		{
			name:    "cache at a regular file",
			args:    []string{"-fig", "fig06", "-cache", file},
			wantErr: "not a directory",
		},
		{
			name:    "checkpoint and cache together",
			args:    []string{"-fig", "fig06", "-checkpoint", t.TempDir(), "-cache", t.TempDir()},
			wantErr: "flag provided but not defined: -checkpoint",
		},
		{
			name:    "non-positive lease ttl",
			args:    []string{"-fig", "fig06", "-cache", t.TempDir(), "-lease-ttl", "0s"},
			wantErr: "-lease-ttl must be positive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, os.Stdout)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v; want substring %q", err, tc.wantErr)
			}
		})
	}
}
