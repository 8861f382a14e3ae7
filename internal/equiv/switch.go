package equiv

import (
	"fmt"
	"io"
	"sort"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/device"
)

// Switch-level verification of the folded T-MI cell library: each cell's
// transistor network — the one netlist shared by the 2D and folded
// realizations, since folding only moves devices between tiers — is evaluated
// as a switch network (PMOS conducts on gate=0, NMOS on gate=1, values flow
// from the rails through conducting channels) and compared against the 2D
// base function's Logic truth table for every input combination. A static
// CMOS cell that shorts VDD to VSS, leaves its output floating, or resolves
// to the wrong value on any row is reported. The folded realization is
// additionally required to keep every output net tier-spanning (it connects
// PMOS and NMOS drains), i.e. carrying exactly the MIV Fig 2 shows.

// CellIssue is one library defect found by the switch-level check.
type CellIssue struct {
	Cell   string `json:"cell"`
	Detail string `json:"detail"`
}

// LibReport is the outcome of the once-per-run library check.
type LibReport struct {
	Cells   int         `json:"cells"`
	Checked int         `json:"checked"`
	Skipped []string    `json:"skipped,omitempty"`
	Issues  []CellIssue `json:"issues,omitempty"`
}

// Err returns nil when the library is clean.
func (r *LibReport) Err() error {
	if len(r.Issues) == 0 {
		return nil
	}
	return fmt.Errorf("equiv: library check: %d issues in %d cells (first: %s: %s)",
		len(r.Issues), r.Cells, r.Issues[0].Cell, r.Issues[0].Detail)
}

// WriteText renders the human-readable library report.
func (r *LibReport) WriteText(w io.Writer) {
	verdict := "CLEAN"
	if len(r.Issues) > 0 {
		verdict = "DEFECTIVE"
	}
	fmt.Fprintf(w, "library switch-level check: %d cells, %d verified, %d sequential skipped — %s\n",
		r.Cells, r.Checked, len(r.Skipped), verdict)
	for _, is := range r.Issues {
		fmt.Fprintf(w, "  %s: %s\n", is.Cell, is.Detail)
	}
}

// CheckLibrary switch-level-verifies every cell of the generated library.
// Sequential cells (DFF) have feedback and no combinational truth table;
// they are skipped and listed.
func CheckLibrary() *LibReport {
	rep := &LibReport{}
	for _, def := range cellgen.Library() {
		def := def
		rep.Cells++
		if def.Seq {
			rep.Skipped = append(rep.Skipped, def.Name)
			continue
		}
		rep.Checked++
		checkCell(rep, &def)
	}
	return rep
}

func checkCell(rep *LibReport, def *cellgen.CellDef) {
	issue := func(format string, args ...any) {
		rep.Issues = append(rep.Issues, CellIssue{Cell: def.Name, Detail: fmt.Sprintf(format, args...)})
	}

	// Folded-realization structure: every output must span both tiers.
	spanning := map[string]bool{}
	for _, n := range def.SpanningNets() {
		spanning[n] = true
	}
	for _, out := range def.Outputs {
		if !spanning[out] {
			issue("output %s does not span tiers in the folded cell (no MIV site)", out)
		}
	}

	rows := 1 << len(def.Inputs)
	args := make([]bool, len(def.Inputs))
	for row := 0; row < rows; row++ {
		for i := range args {
			args[i] = row&(1<<i) != 0
		}
		vals, err := switchEval(def, args)
		if err != nil {
			issue("row %d (%s): %v", row, rowString(def.Inputs, args), err)
			continue
		}
		want := def.Logic(args)
		for o, pin := range def.Outputs {
			got, ok := vals[pin]
			if !ok {
				issue("row %d (%s): output %s floats", row, rowString(def.Inputs, args), pin)
				continue
			}
			if got != want[o] {
				issue("row %d (%s): output %s resolves to %v, base function says %v",
					row, rowString(def.Inputs, args), pin, got, want[o])
			}
		}
	}
}

func rowString(inputs []string, args []bool) string {
	out := ""
	for i, n := range inputs {
		if i > 0 {
			out += " "
		}
		bit := "0"
		if args[i] {
			bit = "1"
		}
		out += n + "=" + bit
	}
	return out
}

// switchEval resolves the cell's net values for one input assignment by
// fixpoint over channel conduction: nets reachable from VDD (VSS) through
// conducting transistors take 1 (0); a net reaching both rails is a short.
// Gates driven by internal nets (transmission structures) resolve as the
// fixpoint assigns their nets. Returns net → value for every resolved net.
func switchEval(def *cellgen.CellDef, args []bool) (map[string]bool, error) {
	vals := map[string]bool{cellgen.NetVDD: true, cellgen.NetVSS: false}
	for i, pin := range def.Inputs {
		vals[pin] = args[i]
	}

	for iter := 0; iter < len(def.Transistors)+2; iter++ {
		// Union nets across conducting channels.
		parent := map[string]string{}
		var find func(string) string
		find = func(n string) string {
			p, ok := parent[n]
			if !ok || p == n {
				parent[n] = n
				return n
			}
			r := find(p)
			parent[n] = r
			return r
		}
		union := func(a, b string) {
			ra, rb := find(a), find(b)
			if ra != rb {
				parent[ra] = rb
			}
		}
		for _, t := range def.Transistors {
			gv, known := vals[t.Gate]
			if !known {
				continue // unresolved gate: channel state unknown this pass
			}
			conducts := (t.Kind == device.PMOS && !gv) || (t.Kind == device.NMOS && gv)
			if conducts {
				union(t.Drain, t.Source)
			}
		}

		// Each component takes the value of any driven member net — a rail,
		// an input pin, or a previously resolved net (transmission gates pass
		// input values without touching a rail). Two different values in one
		// component is a drive fight; VDD and VSS meeting is the short case.
		if find(cellgen.NetVDD) == find(cellgen.NetVSS) {
			return nil, fmt.Errorf("VDD–VSS short through conducting channels")
		}
		// Sorted, so a fight names the same net on every run.
		nets := make([]string, 0, len(vals))
		for net := range vals {
			nets = append(nets, net)
		}
		sort.Strings(nets)
		compVal := map[string]bool{}
		for _, net := range nets {
			root := find(net)
			if old, ok := compVal[root]; ok && old != vals[net] {
				return nil, fmt.Errorf("net %s driven to both 0 and 1", net)
			}
			compVal[root] = vals[net]
		}
		changed := false
		for _, t := range def.Transistors {
			for _, n := range []string{t.Drain, t.Source} {
				v, ok := compVal[find(n)]
				if !ok {
					continue
				}
				if _, have := vals[n]; !have {
					vals[n] = v
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return vals, nil
}
