// Package experiments regenerates every table and figure of the paper's
// evaluation (§7), plus the ablations DESIGN.md calls out. Each experiment
// is a pure function from Options to a Result: a printable table of the
// same rows/series the paper reports, along with machine-checkable summary
// metrics the test suite asserts on.
//
// Scale. The paper's runs span up to 180 wall-clock seconds at 1.2 Tbps —
// about 2×10^9 packets, infeasible to simulate packet-by-packet in CI.
// Every experiment therefore defaults to a shortened horizon with the same
// dynamics, and scales up via Options.Scale (1 = CI default; 10+ approaches
// paper scale). EXPERIMENTS.md records the paper-vs-measured comparison at
// the default scale.
package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"marlin/internal/sim"
)

// paperECN is the tested network's marking in every §7 experiment:
// DCTCP-style step ECN at K = 65 packets, the DCTCP paper's K for 100G.
const paperECN = "ecn:k=65"

// Options tune an experiment run.
type Options struct {
	// Scale stretches horizons and flow counts toward paper scale
	// (0 or 1 = CI default).
	Scale float64
	// Seed drives all randomness (0 = a fixed default).
	Seed uint64
}

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 0x4d61726c696e // "Marlin"
	}
	return o
}

// scaleD stretches a duration by the scale factor.
func (o Options) scaleD(d sim.Duration) sim.Duration {
	return sim.Duration(float64(d) * o.Scale)
}

// scaleN stretches a count by the scale factor.
func (o Options) scaleN(n int) int {
	return int(float64(n) * o.Scale)
}

// Result is one experiment's reproduction artifact.
type Result struct {
	// Name is the registry key (e.g. "fig8").
	Name string
	// Title describes the paper artifact reproduced.
	Title string
	// Headers label the table columns.
	Headers []string
	// Rows are the table body.
	Rows [][]string
	// Notes carry substitutions, scale factors, and caveats.
	Notes []string
	// Metrics are machine-checkable summary statistics.
	Metrics map[string]float64
}

func newResult(name, title string, headers ...string) *Result {
	return &Result{
		Name: name, Title: title, Headers: headers,
		Metrics: make(map[string]float64),
	}
}

// AddRow appends one table row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a caveat line.
func (r *Result) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Name, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(r.Headers)
	for _, row := range r.Rows {
		printRow(row)
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintln(w, "-- metrics --")
		for _, k := range r.metricKeys() {
			fmt.Fprintf(w, "%-32s %g\n", k, r.Metrics[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// FprintJSON renders the result as indented JSON (stable field names for
// downstream tooling).
func (r *Result) FprintJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FprintCSV renders the table body as CSV with the headers as the first
// record; metrics and notes are appended as comment lines.
func (r *Result) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Headers); err != nil {
		return err
	}
	if err := cw.WriteAll(r.Rows); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, k := range r.metricKeys() {
		if _, err := fmt.Fprintf(w, "# metric %s %g\n", k, r.Metrics[k]); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# note %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// FprintMarkdown renders the result as a Markdown section: a heading, the
// table (short rows padded), the metrics table and the notes as quotes.
func (r *Result) FprintMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.Name, r.Title)
	table := func(headers []string, rows [][]string) {
		b.WriteString("| " + strings.Join(headers, " | ") + " |\n|" + strings.Repeat(" --- |", len(headers)) + "\n")
		for _, row := range rows {
			cells := make([]string, len(headers))
			copy(cells, row)
			b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
		}
	}
	if len(r.Headers) > 0 {
		table(r.Headers, r.Rows)
	}
	if len(r.Metrics) > 0 {
		var rows [][]string
		for _, k := range r.metricKeys() {
			rows = append(rows, []string{k, fmt.Sprintf("%g", r.Metrics[k])})
		}
		b.WriteString("\n**Metrics**\n\n")
		table([]string{"metric", "value"}, rows)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	_, err := io.WriteString(w, b.String()+"\n")
	return err
}

// metricKeys lists the metric names in sorted order, the order every
// renderer prints them in.
func (r *Result) metricKeys() []string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Func runs one experiment.
type Func func(Options) (*Result, error)

type entry struct {
	name string
	desc string
	fn   Func
}

var registry []entry

func register(name, desc string, fn Func) {
	for _, e := range registry {
		if e.name == name {
			panic("experiments: duplicate " + name)
		}
	}
	registry = append(registry, entry{name, desc, fn})
}

// Names lists registered experiments in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string {
	for _, e := range registry {
		if e.name == name {
			return e.desc
		}
	}
	return ""
}

// Run executes a registered experiment.
func Run(name string, opts Options) (*Result, error) {
	for _, e := range registry {
		if e.name == name {
			return e.fn(opts.norm())
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// f2 formats with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
