package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"tmi3d/internal/flow"
	"tmi3d/internal/liberty"
	"tmi3d/internal/stage"
)

// wireidMain is the wire-identity smoke gate: it runs one real flow through
// the staged engine, then replays every cached artifact's stored bytes
// through decode → re-encode and diffs them — the runtime check backing the
// wiresafe analyzer's static totality proof. It also round-trips the
// characterized library codec and a castore Put/Get on the report payload.
// Any divergence exits non-zero: `tmi3d wireid -circuit FPU -scale 0.1`.
func wireidMain(args []string) {
	fs := flag.NewFlagSet("wireid", flag.ExitOnError)
	circuit := fs.String("circuit", "FPU", "benchmark: FPU, AES, LDPC, DES, M256")
	nodeF := fs.String("node", "45", "process node: 45 or 7")
	modeF := fs.String("mode", "tmi", "design mode: 2d, tmi, tmim")
	scale := fs.Float64("scale", 0.1, "circuit scale (1.0 = paper size)")
	clock := fs.Float64("clock", 0, "target clock in ps (0 = Table 12)")
	stageDir := fs.String("stagecache", "", "artifact store directory (empty = a temporary one)")
	fs.Parse(args)

	dir := *stageDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "tmi3d-wireid-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	eng, err := stage.New(dir)
	if err != nil {
		log.Fatal(err)
	}
	node, mode := nodeAndMode(*nodeF, *modeF)
	cfg := flow.Config{
		Circuit: *circuit, Scale: *scale,
		Node: node, Mode: mode, ClockPs: *clock,
	}
	checks, err := eng.WireIdentity(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fail := false
	fmt.Printf("%-8s  %8s  %s\n", "artifact", "bytes", "verdict")
	for _, wc := range checks {
		verdict := "ok"
		if !wc.OK {
			verdict = "FAIL: " + wc.Detail
			fail = true
		}
		fmt.Printf("%-8s  %8d  %s\n", wc.Name, wc.Bytes, verdict)
	}

	// The library codec: the embedded-artifact regeneration contract.
	_, lib, err := cfg.Normalized().Library()
	if err != nil {
		log.Fatal(err)
	}
	b1, err := lib.EncodeJSON()
	if err != nil {
		log.Fatal(err)
	}
	verdict := "ok"
	if back, err := liberty.DecodeJSON(b1); err != nil {
		verdict, fail = "FAIL: "+err.Error(), true
	} else if b2, err := back.EncodeJSON(); err != nil {
		verdict, fail = "FAIL: "+err.Error(), true
	} else if !bytes.Equal(b1, b2) {
		verdict, fail = "FAIL: re-encode diverges", true
	}
	fmt.Printf("%-8s  %8d  %s\n", "library", len(b1), verdict)

	// The persistent tier itself: a Put/Get must hand back the exact bytes
	// (the store checksums payloads, so this also proves the entry format).
	verdict = "ok"
	if err := eng.Store().Put("wireid|probe", b1); err != nil {
		verdict, fail = "FAIL: "+err.Error(), true
	} else if back, ok, err := eng.Store().Get("wireid|probe"); err != nil || !ok {
		verdict, fail = fmt.Sprintf("FAIL: read back ok=%v err=%v", ok, err), true
	} else if !bytes.Equal(b1, back) {
		verdict, fail = "FAIL: store returned different bytes", true
	}
	fmt.Printf("%-8s  %8d  %s\n", "castore", len(b1), verdict)

	if fail {
		os.Exit(1)
	}
}
