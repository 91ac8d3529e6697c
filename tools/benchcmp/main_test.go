package main

import (
	"reflect"
	"testing"
)

func TestParseCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    string
		want    map[string]uint64
		wantErr bool
	}{
		{name: "empty spec", spec: "", want: map[string]uint64{}},
		{name: "multi-entry spec", spec: "6=100000, 8=200000,e=5",
			want: map[string]uint64{"6": 100000, "8": 200000, "e": 5}},
		{name: "missing =", spec: "6=100000,8", wantErr: true},
		{name: "empty fig id", spec: "=100", wantErr: true},
		{name: "non-numeric limit", spec: "6=lots", wantErr: true},
	} {
		got, err := parseCeilings(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: parseCeilings(%q) = %v, want an error", tc.name, tc.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: parseCeilings(%q): %v", tc.name, tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parseCeilings(%q) = %v, want %v", tc.name, tc.spec, got, tc.want)
		}
	}
}

func TestCompareMetrics(t *testing.T) {
	const tol = 1e-6
	for _, tc := range []struct {
		name      string
		base, cur map[string]float64
		failures  int
	}{
		{name: "within tolerance",
			base: map[string]float64{"lr": 0.95, "lag": 512},
			cur:  map[string]float64{"lr": 0.95, "lag": 512 * (1 + tol/2)}},
		{name: "drift past tolerance",
			base:     map[string]float64{"lr": 0.95, "lag": 512},
			cur:      map[string]float64{"lr": 0.95, "lag": 513},
			failures: 1},
		{name: "metric missing from current",
			base:     map[string]float64{"lr": 0.95, "lag": 512},
			cur:      map[string]float64{"lr": 0.95},
			failures: 1},
		{name: "metric only in current",
			base: map[string]float64{"lr": 0.95},
			cur:  map[string]float64{"lr": 0.95, "harmonics": 7}},
		// Below magnitude 1 the tolerance is absolute: 0 → tol/2 is
		// within it although the relative change is infinite.
		{name: "absolute tolerance near zero",
			base: map[string]float64{"ber": 0, "lr": 0.5},
			cur:  map[string]float64{"ber": tol / 2, "lr": 0.5 + tol/2}},
		{name: "absolute drift near zero",
			base:     map[string]float64{"ber": 0},
			cur:      map[string]float64{"ber": 2 * tol},
			failures: 1},
	} {
		if got := compareMetrics("8", tc.base, tc.cur, tol); got != tc.failures {
			t.Errorf("%s: compareMetrics = %d failures, want %d", tc.name, got, tc.failures)
		}
	}
}
