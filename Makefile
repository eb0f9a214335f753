# Convenience targets; everything is plain dune underneath.

.PHONY: all build check deps-check test bench bench-quick bench-smoke bench-udp bench-serve bench-hostile perf-smoke secure-smoke udp-smoke serve-smoke hostile-smoke perfbench-smoke ledger-check soak soak-smoke udp-soak examples cli clean outputs

all: build

# The one-stop gate: the dependency guard (deps-check), full test suite,
# the perf-smoke fusion invariants (E2/E14/E15 ratios plus the E19
# schema-compiler gate at a tiny quota), the fused AEAD record-layer
# gate (E20), the real-socket
# loopback self-test with its zero-allocation gate (E16), the sharded
# many-session engine self-test on both backends (E17), the
# adversarial-ingress self-test under byzantine load (E18), the
# end-to-end benchmark's smoke test (perfbench/), and the count ledger.
check: deps-check test perf-smoke secure-smoke udp-smoke serve-smoke hostile-smoke perfbench-smoke ledger-check

build:
	dune build @all

# The production cone: core, serve and chaos link none of the paper's
# baselines (transport, atmsim, rpcsim) nor its models (repro), and the
# simulated UDP is named Netsim.Udp everywhere but perfbench, which keeps
# the Transport.Udp alias.
deps-check:
	@if grep -nwE 'transport|atmsim|rpcsim|repro' lib/core/dune lib/serve/dune lib/chaos/dune; then \
	  echo "deps-check: a production library links a baseline or repro"; exit 1; fi
	@if grep -rn 'Transport\.Udp' lib bin bench test examples; then \
	  echo "deps-check: name Netsim.Udp, not Transport.Udp"; exit 1; fi
	@echo "deps-check: ok"

test:
	dune runtest

# All eleven experiments (DESIGN.md section 3 / EXPERIMENTS.md).
bench:
	dune exec bench/main.exe

# A quicker benchmark pass for iteration.
bench-quick:
	ALFNET_BENCH_QUOTA=0.15 dune exec bench/main.exe

# Tiny-quota pass over the microbenchmark experiments only: seconds, not
# minutes, and still writes a valid BENCH_ilp.json for comparison.
bench-smoke:
	ALFNET_BENCH_QUOTA=0.05 dune exec bench/main.exe -- table1 ilp-fusion fused-convert ilp-parallel ilp-compile ilp-marshal schema-marshal secure-record serve-dispatch

# Quick perf gate: run the fusion experiments at a tiny quota, then fail
# if fused does not beat serial (E2), the compiled 3-stage plan does not
# beat serial layered execution by >= 2x (E14), or the fused marshal
# does not beat the encode-then-checksum-then-copy composition by
# >= 1.5x per codec (E15), or the schema-compiled marshal/lazy view
# falls below the interpreters or allocates a Bytebuf or more GC words
# per run than bench/gates.ml allows (E19). Ratios
# compare measurements within one run, so the short quota does not skew
# them; E2's, E15's and E19's are medians of interleaved timing pairs.
perf-smoke:
	ALFNET_BENCH_QUOTA=0.05 ALFNET_BENCH_JSON=BENCH_smoke.json dune exec bench/main.exe -- ilp-fusion ilp-compile ilp-marshal schema-marshal
	dune exec bench/perfcheck.exe -- BENCH_smoke.json
	dune exec bench/perfcheck.exe -- --schema BENCH_smoke.json

# The fused AEAD record layer (E20): marshal + ChaCha20 + Poly1305 +
# CRC-32 framing in one pass must beat the layered reference stack
# (per-layer byte-grain walks and PDU copies) by >= 1.5x on send and
# >= 1.3x on receive, stay within noise of the word-grain layered
# upper bound, and allocate nothing in steady state on either side.
# Then the CLI's secure selftest at its tier-1 size: the secure soak
# cases on both backends, and no Bytebuf and no GC word per record for
# the transport's seal and open.
secure-smoke:
	ALFNET_BENCH_QUOTA=0.05 ALFNET_BENCH_JSON=BENCH_secure_smoke.json dune exec bench/main.exe -- secure-record
	dune exec bench/perfcheck.exe -- --secure BENCH_secure_smoke.json
	dune exec bin/alfnet.exe -- secure --smoke

# Real loopback UDP (E16): stream fused-send ADUs over actual sockets
# via the Rt poll loop, race the same workload through the simulator,
# and gate on zero steady-state Bytebuf allocations per ADU on the send
# path. Needs no privileges: everything stays on 127.0.0.1.
bench-udp:
	dune exec bin/alfnet.exe -- udp --bench --out BENCH_udp.json
	dune exec bench/perfcheck.exe -- --udp BENCH_udp.json

# The quick E16 pass that rides in `make check`: smaller stream, same
# invariants and zero-alloc gate.
udp-smoke:
	dune exec bin/alfnet.exe -- udp --bench --adus 2000 --out BENCH_udp_smoke.json
	dune exec bench/perfcheck.exe -- --udp BENCH_udp_smoke.json

# The many-session engine (E17): sessions x domains scaling sweep over
# netsim plus a full-count point on real loopback sockets, gated on
# every-session-DONE, delivered union gone = sent, peak concurrency =
# session count, and zero steady-state pool allocations.
bench-serve:
	dune exec bin/alfnet.exe -- serve --bench --sessions 100000 --out BENCH_scale.json
	dune exec bench/perfcheck.exe -- --serve BENCH_scale.json

# The quick E17 pass that rides in `make check`: a few thousand
# concurrent sessions through both backends, same invariants.
serve-smoke:
	dune exec bin/alfnet.exe -- serve --backend both --sessions 4000

# Adversarial ingress (E18): the full 10^5-session run on both backends
# with >= 30% byzantine traffic mixed in, then the perfcheck gate over
# the written rows — honest sessions exact, pool budget flat, every
# drop reason-coded, stage-0 validation under 3% of the clean path.
bench-hostile:
	dune exec bin/alfnet.exe -- serve --bench --hostile --sessions 100000 --out BENCH_hostile.json
	dune exec bench/perfcheck.exe -- --hostile BENCH_hostile.json

# The quick E18 pass that rides in `make check`: both backends under the
# byzantine mix at a few thousand sessions, same invariants.
hostile-smoke:
	dune exec bin/alfnet.exe -- serve --hostile --backend both --sessions 4000

# The end-to-end benchmark at tiny sizes: every workload's correctness
# gate, traced and untraced, on a second seed; the --inject-mismatch
# negative case; and serve-lossy's repeatability across processes.
perfbench-smoke:
	python3 perfbench/smoke.py

# The count ledger: every workload traced at small sizes, failing when a
# per-layer GC-words count, a per-ADU count or serve-lossy's repair
# signature rises above bench/baselines/LEDGER.json by more than the
# spread recorded with it. A change that lowers a count rewrites the
# file (python3 bench/ledger.py --write) in the same commit.
ledger-check:
	python3 bench/ledger.py

# The soak matrix on real sockets: loss/corruption injected at the
# datagram seam, same six robustness invariants as `make soak`.
udp-soak:
	dune exec bin/alfnet.exe -- udp --soak --out BENCH_udp_soak.json

# The full hostile-network soak matrix (E13): impairment x recovery
# policy x FEC plus fault plans, invariants checked, BENCH_soak.json out.
soak:
	dune exec bin/alfnet.exe -- soak

# The seeded 2-second subset that also runs inside `dune runtest`
# (test/test_chaos.ml), for quick control-plane regression checks.
soak-smoke:
	dune exec bin/alfnet.exe -- soak --smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/file_transfer.exe
	dune exec examples/video_stream.exe
	dune exec examples/rpc_demo.exe
	dune exec examples/parallel_sink.exe
	dune exec examples/text_transfer.exe
	dune exec examples/ilp_showcase.exe

cli:
	dune exec bin/alfnet.exe -- transfer --transport alf --loss 0.05 -v
	dune exec bin/alfnet.exe -- transfer --transport tcp --loss 0.05 -v
	dune exec bin/alfnet.exe -- atm --aal 5 --cell-loss 0.005
	dune exec bin/alfnet.exe -- syntax --ints 32

# Regenerate the captured artefacts referenced by EXPERIMENTS.md.
outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean
