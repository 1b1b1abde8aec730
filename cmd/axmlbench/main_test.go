package main

import (
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestExperimentIDsMatchDispatch: the IDs axmlbench accepts are exactly the
// ones main dispatches on, so a new experiment cannot be rejected and a
// mistyped one cannot pass silently.
func TestExperimentIDsMatchDispatch(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var dispatched []string
	for _, m := range regexp.MustCompile(`(?:want\(|selected\[)"([a-z0-9]+)"`).FindAllStringSubmatch(string(src), -1) {
		if !slices.Contains(dispatched, m[1]) {
			dispatched = append(dispatched, m[1])
		}
	}
	ids := slices.Clone(experimentIDs)
	slices.Sort(ids)
	slices.Sort(dispatched)
	if !slices.Equal(ids, dispatched) {
		t.Fatalf("experimentIDs = %v, main dispatches %v", ids, dispatched)
	}
	selected := map[string]bool{"nosuch": true}
	for _, id := range experimentIDs {
		selected[id] = true
	}
	if got := unknownIDs(selected); !slices.Equal(got, []string{"nosuch"}) {
		t.Fatalf("unknownIDs = %v, want [nosuch]", got)
	}
}
