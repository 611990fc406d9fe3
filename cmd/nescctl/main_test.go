package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readmeRuns is every nescctl command line README.md shows, by its arguments
// as written there, with a line the run must print.
var readmeRuns = []struct{ args, want string }{
	{"", "host filesystem fsck: clean"},
	{"-queues 4", "vm2 attached: VF 2"},
	{"-metrics -", "# TYPE nesc_device_aborted_chunks_total gauge"},
	{"-snapshot -clone", "fork0 diverged at its own pace"},
	{"-fabric 3", "restored full redundancy"},
	{"-migrate", "post-migration read-back verified on device 1"},
	{"-top", "fail-slow pulse opened"},
	{"-dedup", "released every fork and both masters"},
	{"-tenants 3 -scrub -metrics /tmp/nesc.prom -trace-json /tmp/nesc.json", "scrub pass: 131072 blocks verified"},
	{"-trace 40 -trace-vf 1", "last device events (fn 1):"},
	{"-flight", "flight recorder: no records"},
}

// readmeLine finds a nescctl invocation in README.md — `go run ./cmd/nescctl`
// in a code block or `nescctl` opening an inline code span — and captures its
// arguments up to the end of the line, the span or a comment.
var readmeLine = regexp.MustCompile("(?:go run \\./cmd/|`)nescctl([^`#\n]*)")

// TestEveryReadmeLineRuns runs each README nescctl line, and fails on a README
// line no row runs and on a row README no longer shows. A path argument is
// moved into the test's temporary directory.
func TestEveryReadmeLineRuns(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	shown := map[string]bool{}
	for _, m := range readmeLine.FindAllStringSubmatch(strings.ReplaceAll(string(readme), "\\\n", " "), -1) {
		shown[strings.Join(strings.Fields(m[1]), " ")] = true
	}
	rows := map[string]bool{}
	for _, row := range readmeRuns {
		rows[row.args] = true
		if !shown[row.args] {
			t.Errorf("README shows no `nescctl %s`: delete the row", row.args)
		}
	}
	for args := range shown {
		if !rows[args] {
			t.Errorf("README shows `nescctl %s`, which no row of readmeRuns runs", args)
		}
	}

	dir := t.TempDir()
	for _, row := range readmeRuns {
		t.Run(row.args, func(t *testing.T) {
			args := strings.Fields(row.args)
			for i, a := range args {
				if filepath.IsAbs(a) {
					args[i] = filepath.Join(dir, filepath.Base(a))
				}
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("nescctl %s: %v", row.args, err)
			}
			if !strings.Contains(out.String(), row.want) {
				t.Errorf("nescctl %s did not print %q:\n%s", row.args, row.want, out.String())
			}
		})
	}
}
