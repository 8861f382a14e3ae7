// Command replay re-analyzes a dumped implementation: it parses the Verilog
// netlist and DEF placement written by `tmi3d -dump`, re-routes, re-extracts
// and reruns sign-off timing and power — the ECO-analysis loop of a real
// flow, exercising the interchange readers end to end.
//
// Usage:
//
//	tmi3d -circuit AES -scale 0.3 -mode tmi -dump /tmp/aes
//	replay -v /tmp/aes.v -def /tmp/aes.def -mode tmi -clock 6000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tmi3d/internal/captable"
	"tmi3d/internal/liberty"
	"tmi3d/internal/netlist"
	"tmi3d/internal/place"
	"tmi3d/internal/power"
	"tmi3d/internal/rcx"
	"tmi3d/internal/route"
	"tmi3d/internal/sta"
	"tmi3d/internal/tech"
)

func main() {
	vPath := flag.String("v", "", "Verilog netlist (from tmi3d -dump)")
	defPath := flag.String("def", "", "DEF placement (from tmi3d -dump)")
	modeF := flag.String("mode", "2d", "2d, tmi or tmim")
	nodeF := flag.String("node", "45", "45 or 7")
	clock := flag.Float64("clock", 0, "clock period in ps (calibrated)")
	util := flag.Float64("util", 0.8, "utilization for die reconstruction")
	showPath := flag.Bool("path", true, "print the critical path")
	flag.Parse()
	log.SetFlags(0)
	if *vPath == "" {
		log.Fatal("need -v netlist")
	}

	node, err := tech.ParseNode(*nodeF)
	if err != nil {
		log.Fatal(err)
	}
	mode, err := tech.ParseMode(*modeF)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := liberty.Default(node, mode)
	if err != nil {
		log.Fatal(err)
	}

	vf, err := os.Open(*vPath)
	if err != nil {
		log.Fatal(err)
	}
	defer vf.Close()
	d, err := netlist.ParseVerilog(vf, func(cell, pin string) bool {
		c := lib.Cell(cell)
		if c == nil {
			return pin == "Z" || pin == "Q" || pin == "CO" || (pin == "S" && !strings.HasPrefix(cell, "MUX2"))
		}
		for _, o := range c.Outputs {
			if o == pin {
				return true
			}
		}
		return false
	})
	if err != nil {
		log.Fatal(err)
	}
	if *clock > 0 {
		d.TargetClockPs = *clock
	} else if d.TargetClockPs == 0 {
		d.TargetClockPs = 5000
	}
	log.Printf("parsed %s: %d cells, %d nets", d.Name, len(d.Instances), len(d.Nets))

	tt := tech.New(node, mode)
	pl, err := place.Run(d, place.Options{Lib: lib, Tech: tt, TargetUtil: *util})
	if err != nil {
		log.Fatal(err)
	}
	if *defPath != "" {
		df, err := os.Open(*defPath)
		if err != nil {
			log.Fatal(err)
		}
		defer df.Close()
		if err := pl.ReadDEFLocations(df); err != nil {
			log.Fatal(err)
		}
		log.Printf("restored placement from %s", *defPath)
	}

	rt, err := route.Run(pl, route.Options{Tech: tt})
	if err != nil {
		log.Fatal(err)
	}
	tb := captable.Build(tt, captable.Options{})
	ex := rcx.Extract(rt, tb, tt)
	env := sta.Env{Lib: lib, Wire: ex.WireFunc()}
	res, err := sta.Analyze(d, env)
	if err != nil {
		log.Fatal(err)
	}
	pow, err := power.Analyze(d, power.Env{Lib: lib, Wire: ex.WireFunc(), Timing: res})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replayed %s (%v %v): WL %.4f m, WNS %+.0f ps (hold %+.0f), power %.3f mW\n",
		d.Name, node, mode, rt.TotalLen/1e6, res.WNS, res.HoldWNS, pow.Total)
	if *showPath {
		fmt.Print(sta.FormatPath(sta.CriticalPath(d, env, res), res))
	}
}
