package lint

import (
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestParseDirective(t *testing.T) {
	cases := []struct {
		rest      string
		checks    []string
		justified bool
	}{
		{" wallclock -- host-side ETA", []string{"wallclock"}, true},
		{" wallclock,maporder -- one directive, two checks", []string{"wallclock", "maporder"}, true},
		{" wallclock, maporder -- spaces around the comma", []string{"wallclock", "maporder"}, true},
		// No " -- " separator: unjustified.
		{" wallclock", []string{"wallclock"}, false},
		// Separator but empty justification: still unjustified.
		{" wallclock --  ", []string{"wallclock"}, false},
		// No checks at all.
		{" -- why though", nil, true},
		{"", nil, false},
	}
	for _, tc := range cases {
		d := parseDirective(token.Position{Filename: "x.go", Line: 1}, tc.rest)
		if !reflect.DeepEqual(d.checks, tc.checks) || d.justified != tc.justified {
			t.Errorf("parseDirective(%q) = checks %v justified %v; want %v, %v",
				tc.rest, d.checks, d.justified, tc.checks, tc.justified)
		}
	}
}

// TestDirectiveCoverage pins the directive's reach: its own line (trailing
// form) and the next line (comment-above form), nothing further.
func TestDirectiveCoverage(t *testing.T) {
	dir := &directive{
		pos:       token.Position{Filename: "x.go", Line: 10},
		checks:    []string{"wallclock", "maporder"},
		justified: true,
	}
	ds := &directives{list: []*directive{dir}, byLine: map[string]map[int][]*directive{
		"x.go": {10: {dir}, 11: {dir}},
	}}
	diag := func(file string, line int, check string) Diagnostic {
		return Diagnostic{Check: check, Pos: token.Position{Filename: file, Line: line}}
	}
	for _, tc := range []struct {
		d    Diagnostic
		want bool
	}{
		{diag("x.go", 10, "wallclock"), true},  // same line
		{diag("x.go", 11, "wallclock"), true},  // line below
		{diag("x.go", 11, "maporder"), true},   // second check of the directive
		{diag("x.go", 12, "wallclock"), false}, // two lines below: out of reach
		{diag("x.go", 9, "wallclock"), false},  // line above the directive
		{diag("x.go", 11, "rngsource"), false}, // check not named
		{diag("y.go", 10, "wallclock"), false}, // different file
	} {
		if got := ds.allows(tc.d); got != tc.want {
			t.Errorf("allows(%s:%d %s) = %v, want %v",
				tc.d.Pos.Filename, tc.d.Pos.Line, tc.d.Check, got, tc.want)
		}
	}
	// An unjustified directive never suppresses, even on a covered line.
	dir.justified = false
	if ds.allows(diag("x.go", 10, "wallclock")) {
		t.Error("unjustified directive suppressed a diagnostic")
	}
}

func TestDirectiveProblems(t *testing.T) {
	mk := func(line int, justified bool, checks ...string) *directive {
		return &directive{pos: token.Position{Filename: "x.go", Line: line}, checks: checks, justified: justified}
	}
	ds := &directives{list: []*directive{
		mk(1, true, "wallclock"),           // fine
		mk(2, false, "wallclock"),          // missing justification
		mk(3, true, "nosuchcheck"),         // unknown check name is an error
		mk(4, true),                        // names no check
		mk(5, false, "alsonotacheck"),      // unknown name and unjustified: both reported
		mk(6, true, "poolflow", "detflow"), // several known names
	}}
	var got []string
	for _, d := range ds.problems() {
		got = append(got, d.Pos.String()+" "+d.Msg)
	}
	wantSubstr := []string{
		"x.go:2 //marlin:allow needs a justification",
		`x.go:3 //marlin:allow names unknown check "nosuchcheck"`,
		"x.go:4 //marlin:allow names no check",
		`x.go:5 //marlin:allow names unknown check "alsonotacheck"`,
		"x.go:5 //marlin:allow needs a justification",
	}
	if len(got) != len(wantSubstr) {
		t.Fatalf("problems() = %d diagnostics %q, want %d", len(got), got, len(wantSubstr))
	}
	for i, want := range wantSubstr {
		if !strings.HasPrefix(got[i], want) {
			t.Errorf("problems()[%d] = %q, want prefix %q", i, got[i], want)
		}
	}
}

// TestDirectiveFixtureClean runs the end-to-end form: a fixture whose every
// violation carries a justified directive (trailing, line-above, and
// multi-check forms) produces zero diagnostics.
func TestDirectiveFixtureClean(t *testing.T) {
	if got := runFixture(t, "directive_ok", "wallclock"); got != nil {
		t.Errorf("directive_ok should be fully suppressed, got %v", got)
	}
}
