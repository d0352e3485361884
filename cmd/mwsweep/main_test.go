package main

import (
	"testing"

	"mediaworm"
)

// TestManifestKeyFollowsTheGrid checks that a journal is keyed by the cells
// it holds: any result-shaping change to a cell's configuration changes the
// key, while trace settings, which only choose artifact files, do not.
func TestManifestKeyFollowsTheGrid(t *testing.T) {
	key := func(param string, reps int, mutate func(*mediaworm.Config)) string {
		t.Helper()
		cfg := mediaworm.DefaultConfig()
		mutate(&cfg)
		k, err := manifestKey(param, reps, []mediaworm.Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key("load", 1, func(*mediaworm.Config) {})
	for name, k := range map[string]string{
		"lanes":    key("load", 1, func(c *mediaworm.Config) { c.Lanes = 2 }),
		"param":    key("mix", 1, func(*mediaworm.Config) {}),
		"replicas": key("load", 2, func(*mediaworm.Config) {}),
	} {
		if k == base {
			t.Errorf("changing %s left the manifest key unchanged", name)
		}
	}
	traced := key("load", 1, func(c *mediaworm.Config) { c.Trace.Enabled = true })
	if traced != base {
		t.Error("enabling tracing changed the manifest key")
	}
}
