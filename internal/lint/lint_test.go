package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tmi3d/internal/cellgen"
	"tmi3d/internal/geom"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/tech"
)

// cleanDesign is the minimal lint-clean mapped netlist: two PIs through an
// XOR2 to a PO.
func cleanDesign() *netlist.Design {
	d := netlist.New("fixture")
	d.AddPI("a", "a")
	d.AddPI("b", "b")
	d.AddInstance("u1", "XOR2", map[string]string{"A": "a", "B": "b", "Z": "x"}, "Z")
	d.Instances[0].CellName = "XOR2_X1"
	d.AddPO("out", "x")
	return d
}

func lib45(t *testing.T) *liberty.Library {
	t.Helper()
	lib, err := liberty.Default(tech.N45, tech.Mode2D)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestDesignRules drives every netlist ERC rule with a minimal failing
// fixture derived from the clean base design.
func TestDesignRules(t *testing.T) {
	cases := []struct {
		name     string
		rule     string
		severity Severity
		build    func() (*netlist.Design, DesignOptions)
	}{
		{
			name: "clean", rule: "", severity: Error,
			build: func() (*netlist.Design, DesignOptions) {
				return cleanDesign(), DesignOptions{}
			},
		},
		{
			name: "multidrive", rule: "ERC-MULTIDRIVE", severity: Error,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				// A second output on net x: AddInstance overwrites the
				// driver, leaving u1.Z as the unlisted evidence pin.
				d.AddInstance("u2", "XOR2", map[string]string{"A": "a", "B": "b", "Z": "x"}, "Z")
				d.Instances[1].CellName = "XOR2_X1"
				return d, DesignOptions{}
			},
		},
		{
			name: "floatinput", rule: "ERC-FLOATINPUT", severity: Error,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				// Rewire u1.B to a driverless net.
				ni := d.AddNet("floating")
				old := d.Instances[0].Pins["B"]
				d.Nets[old].Sinks = nil
				d.Instances[0].Pins["B"] = ni
				d.Nets[ni].Sinks = []netlist.PinRef{{Inst: 0, Pin: "B"}}
				return d, DesignOptions{}
			},
		},
		{
			name: "dangle", rule: "ERC-DANGLE", severity: Warning,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				d.AddInstance("u2", "INV", map[string]string{"A": "a", "Z": "nowhere"}, "Z")
				d.Instances[1].CellName = "INV_X1"
				return d, DesignOptions{}
			},
		},
		{
			name: "loop", rule: "ERC-LOOP", severity: Error,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				d.AddInstance("u2", "INV", map[string]string{"A": "n2", "Z": "n1"}, "Z")
				d.AddInstance("u3", "INV", map[string]string{"A": "n1", "Z": "n2"}, "Z")
				d.Instances[1].CellName = "INV_X1"
				d.Instances[2].CellName = "INV_X1"
				return d, DesignOptions{}
			},
		},
		{
			name: "unmapped", rule: "ERC-UNMAPPED", severity: Error,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				d.AddInstance("u2", "INV", map[string]string{"A": "x", "Z": "y"}, "Z")
				d.AddPO("out2", "y")
				return d, DesignOptions{} // u1 is mapped, u2 is not
			},
		},
		{
			name: "fanout", rule: "ERC-FANOUT", severity: Warning,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				for _, n := range []string{"u2", "u3", "u4"} {
					i := d.AddInstance(n, "INV", map[string]string{"A": "x", "Z": n + "_z"}, "Z")
					d.Instances[i].CellName = "INV_X1"
					d.AddPO(n+"_out", n+"_z")
				}
				return d, DesignOptions{MaxFanout: 2}
			},
		},
		{
			name: "unreachable", rule: "ERC-UNREACHABLE", severity: Warning,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				// u2 drives only u3, which drives nothing reaching a PO.
				i := d.AddInstance("u2", "INV", map[string]string{"A": "a", "Z": "dead1"}, "Z")
				d.Instances[i].CellName = "INV_X1"
				i = d.AddInstance("u3", "INV", map[string]string{"A": "dead1", "Z": "dead2"}, "Z")
				d.Instances[i].CellName = "INV_X1"
				return d, DesignOptions{}
			},
		},
		{
			name: "struct", rule: "ERC-STRUCT", severity: Error,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				d.Nets[d.NetByName("x")].Sinks = append(d.Nets[d.NetByName("x")].Sinks,
					netlist.PinRef{Inst: 99, Pin: "A"})
				return d, DesignOptions{}
			},
		},
		{
			name: "nocell-func", rule: "LIB-NOCELL", severity: Error,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				d.AddInstance("u2", "BOGUS9", map[string]string{"A": "x", "Z": "y"}, "Z")
				d.Instances[1].CellName = "BOGUS9_X1"
				d.AddPO("out2", "y")
				return d, DesignOptions{}
			},
		},
		{
			name: "pinset", rule: "LIB-PINSET", severity: Error,
			build: func() (*netlist.Design, DesignOptions) {
				d := cleanDesign()
				// Q is not a port of XOR2.
				d.Instances[0].Pins["Q"] = d.Instances[0].Pins["Z"]
				return d, DesignOptions{}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, opts := tc.build()
			rep := CheckDesign(d, opts)
			if tc.rule == "" {
				if len(rep.Diags) != 0 {
					t.Fatalf("clean design produced diagnostics: %v", rep.Diags)
				}
				return
			}
			diags := rep.ByRule(tc.rule)
			if len(diags) == 0 {
				t.Fatalf("expected %s, got: %v", tc.rule, rep.Diags)
			}
			for _, dg := range diags {
				if dg.Severity != tc.severity {
					t.Errorf("%s severity = %v, want %v", tc.rule, dg.Severity, tc.severity)
				}
			}
		})
	}
}

// TestDesignRulesAgainstLibrary covers the rules that need a bound library.
func TestDesignRulesAgainstLibrary(t *testing.T) {
	lib := lib45(t)
	d := cleanDesign()
	d.Instances[0].CellName = "XOR2_X99"
	rep := CheckDesign(d, DesignOptions{Lib: lib})
	if len(rep.ByRule("LIB-NOCELL")) == 0 {
		t.Errorf("unknown bound cell: expected LIB-NOCELL, got %v", rep.Diags)
	}

	d = cleanDesign()
	rep = CheckDesign(d, DesignOptions{Lib: lib})
	if !rep.Clean() || rep.Warnings() != 0 {
		t.Errorf("clean mapped design against real library: %v", rep.Diags)
	}
}

// libCell builds a minimal well-formed INV library cell.
func libCell() *liberty.Cell {
	lut := func(v ...float64) *liberty.LUT {
		return &liberty.LUT{Slews: []float64{10, 100}, Loads: []float64{1, 4},
			V: [][]float64{{v[0], v[1]}, {v[2], v[3]}}}
	}
	return &liberty.Cell{
		Name: "INV_X1", Base: "INV", Strength: 1, Area: 1, Width: 1,
		Inputs: []string{"A"}, Outputs: []string{"Z"},
		PinCap: map[string]float64{"A": 1.5},
		Arcs: []liberty.TimingArc{{
			From: "A", To: "Z", Negated: true,
			Delay:   lut(10, 20, 15, 25),
			OutSlew: lut(12, 22, 17, 27),
			Energy:  lut(1, 2, 1, 2),
		}},
	}
}

// TestLibraryRules drives the library-consistency rules with mutated cells.
func TestLibraryRules(t *testing.T) {
	cases := []struct {
		name   string
		rule   string
		mutate func(c *liberty.Cell)
	}{
		{"clean", "", func(c *liberty.Cell) {}},
		{"monotone-delay", "LIB-MONOTONE", func(c *liberty.Cell) {
			c.Arcs[0].Delay.V[0][1] = 5 // decreases with load
		}},
		{"monotone-slew", "LIB-MONOTONE", func(c *liberty.Cell) {
			c.Arcs[0].OutSlew.V[1][1] = 3
		}},
		{"monotone-axis", "LIB-MONOTONE", func(c *liberty.Cell) {
			c.Arcs[0].Delay.Loads = []float64{4, 1}
		}},
		{"cap-zero", "LIB-CAP", func(c *liberty.Cell) {
			c.PinCap["A"] = 0
		}},
		{"cap-area", "LIB-CAP", func(c *liberty.Cell) {
			c.Area = 0
		}},
		{"cap-leakage", "LIB-CAP", func(c *liberty.Cell) {
			c.Leakage = -1
		}},
		{"pinset-extra-input", "LIB-PINSET", func(c *liberty.Cell) {
			c.Inputs = append(c.Inputs, "B")
			c.PinCap["B"] = 1
		}},
		{"pinset-missing-cap", "LIB-PINSET", func(c *liberty.Cell) {
			delete(c.PinCap, "A")
		}},
		{"pinset-bad-arc", "LIB-PINSET", func(c *liberty.Cell) {
			c.Arcs[0].From = "X"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := libCell()
			tc.mutate(c)
			lib := &liberty.Library{Node: tech.N45, Mode: tech.Mode2D, VDD: 1.1,
				Cells: map[string]*liberty.Cell{c.Name: c}}
			rep := CheckLibrary(lib)
			if tc.rule == "" {
				if len(rep.Diags) != 0 {
					t.Fatalf("clean cell produced diagnostics: %v", rep.Diags)
				}
				return
			}
			if len(rep.ByRule(tc.rule)) == 0 {
				t.Fatalf("expected %s, got: %v", tc.rule, rep.Diags)
			}
		})
	}
}

// TestPinsetOrderDeterministic pins the LIB-PINSET report order: the
// foreign pins of one instance, and the unknown capacitance entries of one
// cell, are reported in sorted pin order on every run, not in map order.
func TestPinsetOrderDeterministic(t *testing.T) {
	wantDesign := []string{
		`pin "P" is not a port of function "XOR2"`,
		`pin "Q" is not a port of function "XOR2"`,
		`pin "R" is not a port of function "XOR2"`,
	}
	wantLib := []string{
		`capacitance entry for unknown pin "P"`,
		`capacitance entry for unknown pin "Q"`,
		`capacitance entry for unknown pin "R"`,
	}
	messages := func(rep *Report) []string {
		var out []string
		for _, d := range rep.ByRule("LIB-PINSET") {
			out = append(out, d.Message)
		}
		return out
	}
	for run := 0; run < 50; run++ {
		d := cleanDesign()
		c := libCell()
		for _, pin := range []string{"R", "P", "Q"} {
			d.Instances[0].Pins[pin] = d.Instances[0].Pins["Z"]
			c.PinCap[pin] = 1
		}
		if got := messages(CheckDesign(d, DesignOptions{})); strings.Join(got, "\n") != strings.Join(wantDesign, "\n") {
			t.Fatalf("run %d: design LIB-PINSET order %q, want %q", run, got, wantDesign)
		}
		lib := &liberty.Library{Node: tech.N45, Mode: tech.Mode2D, VDD: 1.1,
			Cells: map[string]*liberty.Cell{c.Name: c}}
		if got := messages(CheckLibrary(lib)); strings.Join(got, "\n") != strings.Join(wantLib, "\n") {
			t.Fatalf("run %d: library LIB-PINSET order %q, want %q", run, got, wantLib)
		}
	}
}

// TestLayoutRules mutates generated layouts to trip each layout rule.
func TestLayoutRules(t *testing.T) {
	def, ok := cellgen.Template("NAND2")
	if !ok {
		t.Fatal("no NAND2 template")
	}

	t.Run("clean-tmi", func(t *testing.T) {
		d := def
		rep := NewReport("fixture")
		CheckCellLayout(rep, &d, cellgen.GenerateTMI(&d))
		if len(rep.Diags) != 0 {
			t.Fatalf("clean folded NAND2: %v", rep.Diags)
		}
	})
	t.Run("lay-drc", func(t *testing.T) {
		d := def
		lay := cellgen.Generate2D(&d)
		lay.Shapes = append(lay.Shapes, geom.Shape{
			Layer: cellgen.LayerPoly, Net: "sliver",
			R: geom.NewRect(0, 0, 0.02, 0.2), // below 50nm min width
		})
		rep := NewReport("fixture")
		CheckCellLayout(rep, &d, lay)
		if len(rep.ByRule("LAY-DRC")) == 0 {
			t.Fatalf("expected LAY-DRC, got: %v", rep.Diags)
		}
	})
	t.Run("miv-count", func(t *testing.T) {
		d := def
		lay := cellgen.GenerateTMI(&d)
		lay.NumMIV++
		rep := NewReport("fixture")
		CheckCellLayout(rep, &d, lay)
		if len(rep.ByRule("TMI-MIVCOUNT")) == 0 {
			t.Fatalf("expected TMI-MIVCOUNT, got: %v", rep.Diags)
		}
	})
	t.Run("tier", func(t *testing.T) {
		d := def
		lay := cellgen.GenerateTMI(&d)
		for i := range lay.Terminals {
			lay.Terminals[i].Bottom = !lay.Terminals[i].Bottom
		}
		rep := NewReport("fixture")
		CheckCellLayout(rep, &d, lay)
		if len(rep.ByRule("TMI-TIER")) == 0 {
			t.Fatalf("expected TMI-TIER, got: %v", rep.Diags)
		}
	})
}

// TestReport covers the report container itself.
func TestReport(t *testing.T) {
	rep := NewReport("unit")
	rep.add("ERC-MULTIDRIVE", "net n1", "driven twice")
	rep.add("ERC-DANGLE", "net n2", "no sinks")
	if rep.Errors() != 1 || rep.Warnings() != 1 || rep.Clean() {
		t.Fatalf("counts: errors=%d warnings=%d clean=%v", rep.Errors(), rep.Warnings(), rep.Clean())
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "ERC-MULTIDRIVE") {
		t.Fatalf("Err() = %v, want rule ID in message", err)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ERC-MULTIDRIVE", "ERC-DANGLE", "net n1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, buf.String())
		}
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Subject != rep.Subject || len(back.Diags) != len(rep.Diags) ||
		back.Diags[0] != rep.Diags[0] {
		t.Fatalf("JSON round-trip mismatch: %+v vs %+v", back, rep)
	}

	other := NewReport("other")
	other.add("LIB-CAP", "cell INV_X1", "zero cap")
	rep.Merge(other)
	if rep.Errors() != 2 {
		t.Fatalf("merge: errors=%d, want 2", rep.Errors())
	}

	if _, ok := RuleByID("ERC-LOOP"); !ok {
		t.Error("registry missing ERC-LOOP")
	}
	if len(Rules()) < 15 {
		t.Errorf("registry has %d rules, want >= 15", len(Rules()))
	}
}

func TestGateModeString(t *testing.T) {
	for m, want := range map[GateMode]string{GateEnforce: "enforce", GateWarnOnly: "warn-only", GateOff: "off"} {
		if got := m.String(); got != want {
			t.Errorf("GateMode(%d).String() = %q, want %q", m, got, want)
		}
	}
}
