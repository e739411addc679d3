package main

import (
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is rendered from the tables in metrics.go; a change to
// either must regenerate it (python3 perfbench/run.py --all, or
// perfbench -describe > BENCHMARK.json).
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with -describe:\n%s", want)
	}
}

func TestMetricTablesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or repeated", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	setup := false
	for _, d := range e2eDefs {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range e2eDefs {
				if o.Bound > d.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", d.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, d := range layerDefs() {
		check(d.Name, d.Unit, d.Better)
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why", w.Name)
		}
	}
}
