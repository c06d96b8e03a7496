// Package report regenerates every table and figure of the paper's
// evaluation section (§V): the k-regular cost sweep (Fig. 3), the drone
// cost experiments (Figs. 4-7), the Byzantine-resilience comparison
// (Fig. 8), the topology-family cost table (§V-C text) and the
// connectivity-topology resilience table (§V-D text).
//
// Drivers return Figure/Table values that render to CSV (for plotting) and
// ASCII (for terminal inspection). Cost figures report the
// multicast-accounted bytes matching the paper's prototype (DESIGN.md §5);
// unicast bytes are included in the CSV for completeness.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one datum of a series.
type Point struct {
	// X is the sweep variable (n, d, or t).
	X float64
	// Y is the measured value (KB per node, or success rate).
	Y float64
	// CI is the 95% confidence half-width of Y.
	CI float64
	// Extra carries secondary columns for the CSV (e.g. unicast KB).
	Extra map[string]float64
}

// Series is a named sequence of points.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a full plot: several series over a shared x-axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table is a labelled grid of cells.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Options tune the sweeps.
type Options struct {
	// Trials overrides the per-experiment default repetition count; 0
	// keeps the defaults, and a negative count is an error.
	Trials int
	// Seed derives all experiment randomness.
	Seed int64
	// Quick shrinks grids and trial counts for fast smoke runs.
	Quick bool
	// Scheme selects the signature scheme ("" = hmac).
	Scheme string
	// Progress, when non-nil, receives one line per completed point.
	Progress func(line string)
}

func (o Options) trials(def, quickDef int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		return quickDef
	}
	return def
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// CSV renders the figure as "series,x,y,ci[,extra...]" lines.
func (f *Figure) CSV() string {
	var b strings.Builder
	extraCols := f.extraColumns()
	b.WriteString("series,x,y,ci95")
	for _, c := range extraCols {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteString("\n")
	for _, s := range f.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,%g,%g,%g", s.Name, p.X, p.Y, p.CI)
			for _, c := range extraCols {
				fmt.Fprintf(&b, ",%g", p.Extra[c])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func (f *Figure) extraColumns() []string {
	set := map[string]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			for c := range p.Extra {
				set[c] = true
			}
		}
	}
	cols := make([]string, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// ASCII renders a quick terminal line plot of the figure.
func (f *Figure) ASCII(width, height int) string {
	if width < 20 {
		width = 72
	}
	if height < 5 {
		height = 18
	}
	var minX, maxX, minY, maxY float64
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, s := range f.Series {
		for _, p := range s.Points {
			minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
			minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		}
	}
	if math.IsInf(minX, 1) {
		return f.Title + " (no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := []byte("*o+x#@%&")
	for si, s := range f.Series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			c := int(math.Round((p.X - minX) / (maxX - minX) * float64(width-1)))
			r := height - 1 - int(math.Round((p.Y-minY)/(maxY-minY)*float64(height-1)))
			grid[r][c] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "y: %s  [%.3g .. %.3g]\n", f.YLabel, minY, maxY)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&b, "   x: %s  [%g .. %g]\n", f.XLabel, minX, maxX)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "   %c = %s\n", marks[si%len(marks)], s.Name)
	}
	return b.String()
}

// CSV renders the table.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// ASCII renders the table with aligned columns.
func (t *Table) ASCII() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for i, w := range widths {
		b.WriteString(strings.Repeat("-", w) + "  ")
		_ = i
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}
