package serve

import (
	"math"
	"net/url"
	"testing"
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
