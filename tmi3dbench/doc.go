// Command tmi3dbench is the repository's benchmark: it runs one named
// workload of the tmi3d flow, checks every output, and prints each metric by
// name with its unit, ending with one JSON result line. Run it from the
// repository root:
//
//	bash tmi3dbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module (its own go.mod, which replaces tmi3d with the
// checkout it sits in, so it imports tmi3d/internal/...) into .bench_build/
// and runs it. Everything it writes stays under .bench_build/.
//
// # Workloads
//
// study-matrix: the Table 4 matrix — FPU, AES, LDPC, DES and M256, each in
// 2D and T-MI at 45 nm, all gates at their defaults — through
// core.Study.RunAll on a fresh Study per pass: nproc flows in flight, one
// intra-flow worker each. Pairs are submitted longest first (M256 first,
// FPU last), 2D and T-MI adjacent as Study.Pairs submits them; the seed
// orders the two sides of each pair. Every config is a cold flow, so the
// stage bodies and kernels do the work; the staged engine and the daemon are
// not involved.
//
// clock-sweep: 6 seeded clock points each of LDPC and DES in T-MI at 45 nm,
// factors on a jittered grid over [1.0, 1.5] × the Table 12 clock, run one
// at a time through a fresh stage.Engine over a fresh castore directory per
// pass, with Workers = nproc. After a circuit's first point, wlm, synth and
// place are memory hits; each later point pays the opt → route → signoff →
// power → report cone plus the engine's codec and store writes.
//
// ppa-service: an in-process serve.Server with StageDir on loopback, driven
// by 2 closed-loop clients over the clock-sweep's 12 points. Set-up primes
// the stage store with 4 points per circuit through a separate engine; the
// timed phase opens a fresh daemon (empty result store and LRU) over it.
// Most requests repeat a key and hit the LRU; a primed key's first request is
// served from stage-store disk hits plus decode; the 4 unprimed points
// execute the downstream cone.
//
// # End-to-end metrics (--trace 0)
//
//	setup_s           s      median of 3 set-ups, each in a fresh process:
//	                         libraries, library check, circuits, and for
//	                         ppa-service the stage-store priming
//	configs_per_s     1/s    configs answered correctly per second of the
//	                         timed phase (a matrix flow, a sweep point, or an
//	                         HTTP 200)
//	latency_p50_s     s      median per-config latency: a Study.Runner
//	                         wrapper around flow.Run, each Engine.RunStats
//	                         call, or client-side request time
//	cpu_s_per_config  s      process user+sys CPU per config, timed phase
//	peak_rss_mb       MiB    peak resident set at the end of the timed phase
//
// Two more are printed but not in BENCHMARK.json, whose end-to-end metrics
// must be non-zero and present on every workload: latency_p99_s is printed
// with its sample count only where at least 10 samples lie beyond it (only
// ppa-service has enough), and fail_frac (failed over attempted) is 0 on a
// correct run; the result line's "failed" and "attempted" carry it.
//
// The timed phase excludes set-up and all output checks; set-up's garbage is
// collected and the peak-RSS mark reset before it starts. study-matrix and
// clock-sweep run whole passes while the time measured so far, plus one mean
// pass, fits the --seconds budget; ppa-service runs for --seconds.
//
// # Output checks
//
// study-matrix: the SHA-256 of flow.EncodeResult for every config must equal
// the digest recorded in digests.json (the byte-identity contract fixes
// those bytes; re-record with --record-digests --scale <s> only if a change
// is meant to alter results), and every T-MI/2D pair's footprint and total
// power delta must have the sign the paper publishes in Table 4.
// clock-sweep and ppa-service: every payload must be byte-equal to a
// monolithic flow.Run of the same config, computed after the timed phase.
// A failed check counts toward fail_frac and makes the command exit 1.
//
// The "count" lines are deterministic counts (equiv.points, equiv.by_sat,
// opt.rounds, opt.buffers_added, report.bytes, and on the staged workloads
// stage.execs_per_point, stage.upstream_execs_per_point, castore.entries):
// every pass of a run must reproduce them exactly, and the same seed
// reproduces them across runs.
//
// # Traced suite (--trace 1)
//
// A separate, serial run (traced.go) that never overlaps a timed run. It
// exercises every layer, so every run prints every per-layer metric: a cold
// set-up with spans around Config.Library and GenerateDesign; a replay of
// each study-matrix config through the exported stage bodies in flow.Run's
// order with a benchmark-owned flow.Profile (digest asserted), plus probes of
// sta.Analyze, sta.Levelize and the Design/Placement JSON codecs on the
// signed-off design; the same configs untraced, for trace.overhead_frac; one
// Study.RunAll pass for the core metrics; one clock-sweep pass for the stage,
// par and castore metrics; and a short ppa-service session with /metrics
// scraped every 200 ms for the serve metrics. Each span records name, start,
// end, parent, trace ID, and the heap bytes allocated and GC CPU from
// runtime/metrics; spans stay in memory and are written to
// .bench_build/work/trace-<workload>-<seed>.json at the end. Self time is a
// span's duration minus the time its children cover; trace.remainder_frac is
// the part of each flow's wall time no stage span covers.
package main
