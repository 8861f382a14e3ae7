package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"tmi3d/internal/flow"
	"tmi3d/internal/lint"
	"tmi3d/internal/tech"
)

// FuzzParseConfig: any query ParseConfig accepts yields finite, in-range
// numbers, and ConfigQuery renders it back to a query that parses to a config
// with the same Key — the key the daemon caches under.
func FuzzParseConfig(f *testing.F) {
	for _, q := range []string{
		"circuit=FPU",
		"circuit=fpu&scale=0.1&node=45&mode=2d&clock=2415.123", // loadgen's clock-sweep shape
		"circuit=AES&scale=0.15&node=7&mode=tmim&util=0.7&pincap=0.8&act_pi=0.3&act_seq=0.05&wlm2d=true&seed=9&lint=warn&equiv=off",
		"circuit=FPU&clock=-0", "circuit=FPU&util=1", "circuit=FPU&util=0",
		"circuit=FPU&scale=NaN", "circuit=FPU&util=NaN", "circuit=FPU&clock=NaN", "circuit=FPU&act_pi=NaN",
		"circuit=FPU&clock=-100", "circuit=FPU&pincap=-1", "circuit=FPU&util=-0.5", "circuit=FPU&util=5",
		"circuit=FPU&scale=Inf", "circuit=FPU&clock=1e400", "circuit=FPU&timeout_ms=5",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		cfg, err := ParseConfig(q)
		if err != nil {
			return
		}
		for name, v := range map[string]float64{
			"scale": cfg.Scale, "clock": cfg.ClockPs, "util": cfg.Util, "pincap": cfg.PinCapScale,
			"act_pi": cfg.Activities.PrimaryInput, "act_seq": cfg.Activities.SeqOutput,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%q: accepted %s = %v", raw, name, v)
			}
		}
		if cfg.Scale == 0 || cfg.Util > 1 {
			t.Fatalf("%q: accepted scale %v, util %v", raw, cfg.Scale, cfg.Util)
		}
		back, err := ParseConfig(ConfigQuery(cfg))
		if err != nil {
			t.Fatalf("%q: ConfigQuery output rejected: %v", raw, err)
		}
		if back.Key() != cfg.Key() {
			t.Fatalf("%q: key changed across ConfigQuery: %+v vs %+v", raw, cfg, back)
		}
	})
}

// FuzzPostConfig: any body requestConfig accepts on POST yields a config in
// range with known node, mode, gate and layer-class enums, and the config's
// own JSON encoding parses back to a config with the same Key.
func FuzzPostConfig(f *testing.F) {
	for _, body := range []string{
		`{"circuit":"FPU"}`,
		`{"circuit":"FPU","scale":0.1,"node":0,"mode":0,"clock_ps":2415.123}`, // loadgen's clock-sweep shape
		`{"circuit":"AES","scale":0.15,"node":1,"mode":2,"util":0.7,"pin_cap_scale":0.8,"use_2d_wlm":true,"seed":9,"lint":1,"equiv":2,"activities":{"primary_input":0.3,"seq_output":0.05}}`,
		`{"circuit":"AES","scale":0.15,"resistivity_scale":{"1":1.5,"3":0.8}}`,
		`{"circuit":"FPU","scale":0.1}{"circuit":"AES","scale":0.9} junk`,
		`{"circuit":"FPU","scale":0.1}` + " \n\t",
		`{"circuit":"AES","mode":9}`,
		`{"circuit":"AES","resistivity_scale":{"12":2.0}}`,
		`{"circuit":"AES","clock_ps":-0}`,
		`{"circuit":"AES","bogus":1}`,
	} {
		f.Add(body)
	}
	post := func(body []byte) (flow.Config, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/ppa", bytes.NewReader(body))
		return requestConfig(httptest.NewRecorder(), r)
	}
	f.Fuzz(func(t *testing.T, body string) {
		cfg, err := post([]byte(body))
		if err != nil {
			return
		}
		if err := checkRanges(cfg); err != nil {
			t.Fatalf("%q: accepted out of range: %v", body, err)
		}
		if cfg.Node != tech.N45 && cfg.Node != tech.N7 {
			t.Fatalf("%q: accepted node %d", body, int(cfg.Node))
		}
		if cfg.Mode != tech.Mode2D && cfg.Mode != tech.ModeTMI && cfg.Mode != tech.ModeTMIM {
			t.Fatalf("%q: accepted mode %d", body, int(cfg.Mode))
		}
		for _, g := range []lint.GateMode{cfg.Lint, cfg.Equiv} {
			if g != lint.GateEnforce && g != lint.GateWarnOnly && g != lint.GateOff {
				t.Fatalf("%q: accepted gate mode %d", body, int(g))
			}
		}
		for class := range cfg.ResistivityScale {
			switch class {
			case tech.ClassM1, tech.ClassLocal, tech.ClassIntermediate, tech.ClassGlobal:
			default:
				t.Fatalf("%q: accepted layer class %d", body, int(class))
			}
		}
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := post(data)
		if err != nil {
			t.Fatalf("%q: re-encoded config %s rejected: %v", body, data, err)
		}
		if back.Key() != cfg.Key() {
			t.Fatalf("%q: key changed across re-encoding: %+v vs %+v", body, cfg, back)
		}
	})
}
