package flow

// Concurrency and determinism tests for the flow-level shared caches: the
// canonical config key, the derived RNG seed, and the process-wide generated
// netlist / library-check caches that parallel experiment runs hammer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"tmi3d/internal/power"
	"tmi3d/internal/tech"
)

// Sweep points closer than any display rounding must keep distinct keys —
// the regression behind the old %.0f ClockPs cache key, which collided
// Fig 4-style points under 1 ps apart.
func TestConfigKeyPrecision(t *testing.T) {
	base := Config{Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.ModeTMI, ClockPs: 1000.0}
	near := base
	near.ClockPs = 1000.4
	if base.Key() == near.Key() {
		t.Fatalf("configs 0.4 ps apart share a key: %q", base.Key())
	}
	tiny := base
	tiny.PinCapScale = 1.0000001
	if base.Key() == tiny.Key() {
		t.Error("PinCapScale 1e-7 apart share a key")
	}
	util := base
	util.Util = 0.654321
	if base.Key() == util.Key() {
		t.Error("Util change not reflected in key")
	}
}

// Every result-affecting field must move the key; equal configs (including
// semantically equal maps) must agree on it.
func TestConfigKeyCoversFields(t *testing.T) {
	base := Config{Circuit: "DES", Scale: 0.3, Node: tech.N7, Mode: tech.Mode2D}
	mutations := map[string]func(*Config){
		"Circuit":          func(c *Config) { c.Circuit = "AES" },
		"Scale":            func(c *Config) { c.Scale = 0.31 },
		"Node":             func(c *Config) { c.Node = tech.N45 },
		"Mode":             func(c *Config) { c.Mode = tech.ModeTMI },
		"ClockPs":          func(c *Config) { c.ClockPs = 1234.5 },
		"Util":             func(c *Config) { c.Util = 0.7 },
		"PinCapScale":      func(c *Config) { c.PinCapScale = 0.8 },
		"ResistivityScale": func(c *Config) { c.ResistivityScale = map[tech.LayerClass]float64{tech.ClassM1: 0.5} },
		"Use2DWLM":         func(c *Config) { c.Use2DWLM = true },
		"Activities":       func(c *Config) { c.Activities = power.Activities{PrimaryInput: 0.2, SeqOutput: 0.3} },
		"Seed":             func(c *Config) { c.Seed = 99 },
		"Lint":             func(c *Config) { c.Lint = 2 },
		"Equiv":            func(c *Config) { c.Equiv = 2 },
	}
	for field, mutate := range mutations {
		c := base
		mutate(&c)
		if c.Key() == base.Key() {
			t.Errorf("%s change does not change the key", field)
		}
	}
	// Map identity must not matter, only contents.
	a, b := base, base
	a.ResistivityScale = map[tech.LayerClass]float64{tech.ClassM1: 0.5, tech.ClassLocal: 0.7}
	b.ResistivityScale = map[tech.LayerClass]float64{tech.ClassLocal: 0.7, tech.ClassM1: 0.5}
	if a.Key() != b.Key() {
		t.Error("equal ResistivityScale maps produce different keys")
	}
}

// The derived seed is a pure function of the physical config: stable across
// calls, distinct across configs, and independent of the observation-only
// gate modes (lint/equiv must never move the layout).
func TestDeriveSeed(t *testing.T) {
	a := Config{Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.Mode2D, Seed: 1}
	if a.DeriveSeed() != a.DeriveSeed() {
		t.Fatal("DeriveSeed is not stable")
	}
	b := a
	b.ClockPs = 777
	if a.DeriveSeed() != b.DeriveSeed() {
		t.Error("ClockPs changed the derived seed — clock-sweep points must share the synth/place RNG stream")
	}
	bb := a
	bb.Util = 0.9
	if a.DeriveSeed() == bb.DeriveSeed() {
		t.Error("distinct configs share an RNG stream")
	}
	c := a
	c.Seed = 2
	if a.DeriveSeed() == c.DeriveSeed() {
		t.Error("study seed does not reach the derived stream")
	}
	g := a
	g.Lint, g.Equiv = 1, 2
	if a.DeriveSeed() != g.DeriveSeed() {
		t.Error("gate modes changed the derived seed — observation moved the layout")
	}
}

// DeriveSeed's bytes are part of every placement: a drift moves every result
// and orphans every stored artifact. These values predate its move onto
// keyTerm.
func TestDeriveSeedPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.ModeTMI, ClockPs: 850, Util: 0.6, PinCapScale: 0.9,
			ResistivityScale: map[tech.LayerClass]float64{tech.ClassLocal: 1.5}}, 6794592382158127765},
		{Config{Circuit: "FPU", Scale: 0.15, Node: tech.N7, Mode: tech.Mode2D, Seed: 3, Use2DWLM: true,
			Activities:       power.Activities{PrimaryInput: 0.2, SeqOutput: 0.1},
			ResistivityScale: map[tech.LayerClass]float64{tech.ClassGlobal: 2, tech.ClassM1: 0.5},
			Lint:             2, Equiv: 1, ClockPs: 1234.5, Workers: 3}, 14984742705111678719},
		{Config{Circuit: "LDPC"}, 12817973580346655777},
	} {
		if got := tc.cfg.DeriveSeed(); got != tc.want {
			t.Errorf("%s: DeriveSeed = %d, pinned %d", tc.cfg.Circuit, got, tc.want)
		}
	}
}

// Every Config field is either mixed into DeriveSeed or listed here with the
// reason it must not be; and the mixed fields are exactly the setup stage's
// key, the stage that derives the seed.
func TestDeriveSeedFields(t *testing.T) {
	unseeded := map[string]string{
		"ClockPs": "applied after placement: sweep points share the synth/place RNG stream",
		"Lint":    "observation-only gate: must not move the layout",
		"Equiv":   "observation-only gate: must not move the layout",
		"Workers": "never changes result bytes (ParLoops determinism contract)",
	}
	base := Config{Circuit: "AES", Scale: 0.5, Node: tech.N45, Mode: tech.ModeTMI, Util: 0.6}
	var seeded []string
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		moved := base
		perturbField(t, reflect.ValueOf(&moved).Elem().Field(i))
		mixed := moved.DeriveSeed() != base.DeriveSeed()
		if _, excluded := unseeded[name]; mixed == excluded {
			t.Errorf("Config.%s: mixed into DeriveSeed = %v, listed as unseeded = %v", name, mixed, excluded)
		}
		if mixed {
			seeded = append(seeded, name)
		}
	}
	slices.Sort(seeded)
	if setup := KeyFields("setup"); !slices.Equal(seeded, setup) {
		t.Errorf("DeriveSeed mixes %v, the setup stage key is %v", seeded, setup)
	}
}

// perturbField changes a Config field's value to a different one of its type.
func perturbField(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(reflect.New(v.Type().Key()).Elem(), reflect.ValueOf(2.0))
		v.Set(m)
	case reflect.Struct:
		perturbField(t, v.Field(0))
	default:
		t.Fatalf("perturbField: no rule for %s", v.Type())
	}
}

// The generated-netlist cache must hand every concurrent caller of one key
// the same design exactly once, while distinct keys build independently.
func TestGeneratedConcurrent(t *testing.T) {
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]map[string]interface{}, goroutines)
	keys := []struct {
		name  string
		scale float64
	}{{"FPU", 0.08}, {"DES", 0.08}, {"FPU", 0.09}}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := map[string]interface{}{}
			for _, k := range keys {
				d, err := generated(k.name, k.scale)
				if err != nil {
					t.Errorf("generated(%s, %v): %v", k.name, k.scale, err)
					return
				}
				got[fmt.Sprintf("%s@%v", k.name, k.scale)] = d
			}
			results[g] = got
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for k, d := range results[0] {
			if results[g][k] != d {
				t.Fatalf("goroutine %d got a different %s design pointer", g, k)
			}
		}
	}
}

// The switch-level library verification is shared process-wide; concurrent
// callers must all see the one cached report.
func TestLibraryCheckConcurrent(t *testing.T) {
	const goroutines = 8
	reps := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reps[g] = LibraryCheck()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if reps[g] != reps[0] {
			t.Fatal("LibraryCheck returned different pointers")
		}
	}
}

// Every flow result carries its per-stage wall-clock profile, covering the
// pipeline from library to power.
func TestStageTimesPopulated(t *testing.T) {
	r := run(t, Config{Circuit: "FPU", Node: tech.N45, Mode: tech.Mode2D, Scale: 0.1})
	if len(r.StageTimes) == 0 {
		t.Fatal("no stage times recorded")
	}
	seen := map[string]bool{}
	for _, st := range r.StageTimes {
		if st.D < 0 {
			t.Errorf("stage %s has negative duration %v", st.Stage, st.D)
		}
		if seen[st.Stage] {
			t.Errorf("stage %s listed twice", st.Stage)
		}
		seen[st.Stage] = true
	}
	for _, want := range []string{"library", "generate", "synth", "place", "opt", "route", "sta", "power"} {
		if !seen[want] {
			t.Errorf("stage %q missing from profile %v", want, stageNames(r.StageTimes))
		}
	}
}

// TestIntraFlowWorkersByteIdentity pins the intra-flow parallelism contract
// at the flow boundary: the same configuration run with a serial stage-loop
// budget and a parallel one must produce byte-identical JSON reports and
// byte-identical Verilog/DEF artifacts. Any worker-count dependence that
// survives the per-package identity tests — a float fold order, a map walk,
// a slot index — lands here as a byte diff.
func TestIntraFlowWorkersByteIdentity(t *testing.T) {
	artifacts := func(workers int) (rep, verilog, def []byte) {
		r := run(t, Config{Circuit: "FPU", Node: tech.N45, Mode: tech.ModeTMI, Scale: 0.1, Workers: workers})
		rep, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var v, d bytes.Buffer
		if err := r.Design.WriteVerilog(&v); err != nil {
			t.Fatal(err)
		}
		if err := r.Placement.WriteDEF(&d); err != nil {
			t.Fatal(err)
		}
		return rep, v.Bytes(), d.Bytes()
	}
	sRep, sV, sDef := artifacts(1)
	pRep, pV, pDef := artifacts(3)
	for _, cmp := range []struct {
		what string
		x, y []byte
	}{
		{"JSON report", sRep, pRep},
		{"Verilog artifact", sV, pV},
		{"DEF artifact", sDef, pDef},
	} {
		if !bytes.Equal(cmp.x, cmp.y) {
			t.Errorf("%s differs between workers=1 and workers=3 (%d vs %d bytes)",
				cmp.what, len(cmp.x), len(cmp.y))
		}
	}
}

func stageNames(sts []StageTime) string {
	names := make([]string, len(sts))
	for i, st := range sts {
		names[i] = st.Stage
	}
	return strings.Join(names, ",")
}
