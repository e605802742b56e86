#!/usr/bin/env bash
# Tier-1 gate, runnable locally and in CI. The whole workspace must
# format cleanly, lint cleanly, and build + test with NO network access
# (the workspace has zero external dependencies by design — see
# DESIGN.md §3).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== panic-site ratchet (ROADMAP 3d)"
# Non-test code on the rank path should return typed errors. Count the
# `unwrap()` / `expect(` / `panic!` sites above the first `#[cfg(test)]`
# of each file and hold every crate at its committed ceiling: lower a
# ceiling when a PR removes sites, never raise one without a reason in
# the PR.
panic_sites() {
  local n=0 f
  for f in crates/"$1"/src/*.rs; do
    n=$((n + $(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
      | grep -o 'unwrap()\|expect(\|panic!' | wc -l)))
  done
  echo "$n"
}
for entry in comm:47 odin:70 seamless:43; do
  crate=${entry%%:*} ceiling=${entry##*:}
  sites=$(panic_sites "$crate")
  echo "-- $crate: $sites panic sites (ceiling $ceiling)"
  if [ "$sites" -gt "$ceiling" ]; then
    echo "panic-site ratchet: crates/$crate/src has $sites sites, ceiling is $ceiling" >&2
    exit 1
  fi
done

echo "== native kernel tier: C compiler detection"
# The tiered kernel plane lowers straight-line bodies to C and compiles
# them with the system compiler (DESIGN.md §15). Without one, every
# kernel stays on the typed-register VM — pin the tier explicitly so the
# whole gate runs (and passes) on a compiler-less machine.
if command -v cc >/dev/null 2>&1 || command -v gcc >/dev/null 2>&1 \
    || command -v clang >/dev/null 2>&1; then
  echo "-- C compiler present: native tier armed where the parity probe passes"
else
  echo "-- no C compiler: pinning HPC_KERNEL_TIER=vm (VM fallback everywhere)"
  export HPC_KERNEL_TIER=vm
fi

echo "== tier-1: build + test (offline)"
cargo build --release --offline
cargo test -q --offline

echo "== tier-1 tests again with metrics recording on"
HPC_METRICS=1 cargo test -q --offline

echo "== kernel plane again with the native tier pinned off"
# The VM fallback must stay a first-class execution path, not a
# degraded one: the full kernel-plane suite (parity, chaos, recover)
# re-runs with every kernel forced onto the typed-register VM.
HPC_KERNEL_TIER=vm cargo test -q --offline --test kernel_plane

echo "== chaos pass: seeded fault sweep"
# Every fault decision is a pure function of HPC_FAULT_SEED, so each
# sweep value replays a distinct — but exactly reproducible — schedule.
for seed in 42 1009 777216; do
  echo "-- HPC_FAULT_SEED=$seed"
  HPC_FAULT_SEED=$seed cargo test -q --offline --test failure_modes
  HPC_FAULT_SEED=$seed cargo test -q --offline --test kernel_plane
  HPC_FAULT_SEED=$seed cargo test -q --offline --test props zerocopy
  HPC_FAULT_SEED=$seed cargo test -q --offline --test serve_plane
  HPC_FAULT_SEED=$seed cargo test -q --offline --test observability zerocopy_region
  HPC_FAULT_SEED=$seed cargo test -q --offline --test layout_grid chaos
  HPC_FAULT_SEED=$seed cargo test -q --offline --test solver_stack
done

echo "== E19 autotune gate (Auto vs fixed collectives, alloc counting)"
# Asserts Auto is within 5% of the best fixed algorithm at every swept
# (ranks, payload) point and that steady-state CG iterations allocate
# nothing; the metrics registry is emitted as the last stdout line.
cargo run --release --offline -p bench --bin e19_autotune -- --metrics-json \
  | tail -n 1 > BENCH_e19.json
test -s BENCH_e19.json

echo "== E20 kernel-plane gate (jit identity, >=2x vs unfused, wire contract)"
# Asserts the jitted Expr path is bitwise-equal to eager unfused
# evaluation on 1e6 lanes and >= 2x faster than it, and that warm invokes
# are one sub-100-byte control message per worker.
cargo run --release --offline -p bench --bin e20_jit_kernels -- --metrics-json \
  | tail -n 1 > BENCH_e20.json
test -s BENCH_e20.json

echo "== E21 profiling smoke gate (critical path, stragglers, flow trace)"
# Runs the causal-tracing pipeline end to end: a seeded delay fault on one
# rank of a 16-rank CG must be named as the dominant straggler with the
# delay attributed to blocked/wait; the flow-annotated Chrome trace must
# validate under the repo's own JSON parser; enabled-tracing overhead on
# the E19-style CG loop must stay within 5% (all asserted in the binary).
cargo run --release --offline -p bench --bin e21_critpath -- --metrics-json \
  | tail -n 1 > BENCH_e21.json
test -s BENCH_e21.json

echo "== E22 zero-copy gate (region >= 5x encode on 8 MiB, bitwise parity)"
# Asserts the region arm moves 8 MiB point-to-point payloads at >= 5x the
# encode arm's measured bandwidth and beats it on >= 1 MiB-per-peer plan
# exchanges, with bitwise-identical results and bitwise-identical modeled
# makespans on both fixtures (all asserted in the binary).
cargo run --release --offline -p bench --bin e22_zerocopy -- --metrics-json \
  | tail -n 1 > BENCH_e22.json
test -s BENCH_e22.json

echo "== E23 serving-plane gate (open-loop overload + chaos, bitwise parity)"
# Sweeps pool size x {clean, chaos} with thousands of sessions and a 2x
# overload burst: no admitted job may fail (each completes bitwise-equal
# to the fault-free oracle, is shed with a typed error, or expires at its
# deadline), injected worker kills must be absorbed, every per-config
# ledger must reconcile exactly, and overload must surface as counted
# refusals/shedding (all asserted in the binary).
cargo run --release --offline -p bench --bin e23_serve -- --metrics-json \
  | tail -n 1 > BENCH_e23.json
test -s BENCH_e23.json

echo "== E24 whole-program gate (fusion/CSE/DSE/merged moves, bitwise parity)"
# Asserts a traced multi-statement stencil and a CG-like program run
# bitwise-identical to statement-at-a-time evaluation (clean and under
# seeded chaos) with strictly fewer kernel launches and strictly fewer
# ODIN ctrl/data messages, >= 1 merged redistribute and >= 1 CSE hit on
# the stencil (all asserted in the binary).
cargo run --release --offline -p bench --bin e24_program -- --metrics-json \
  | tail -n 1 > BENCH_e24.json
test -s BENCH_e24.json

echo "== E25 native-tier gate (cc codegen, parity probe, >=10x vs interpreter)"
# Asserts the native and VM tiers are bitwise-identical to each other and
# to the eager oracle on the E20 1e6-lane identity (arrays and fused
# reductions), that a fused multi-output stencil group matches across
# tiers, that no parity probe failed, and — when a C compiler is present
# — that the native tier is >= 10x over the boxed interpreter; prints the
# compile-cost break-even curve (all asserted in the binary).
cargo run --release --offline -p bench --bin e25_native -- --metrics-json \
  | tail -n 1 > BENCH_e25.json
test -s BENCH_e25.json

echo "== bench artifacts parse and carry their gate fields"
cargo run --release --offline -p bench --bin bench_check

echo "== repo benchmark: harness unit tests + smoke pass of every workload"
# The five workloads' serial/bitwise oracles (benchmark/README.md) gate
# every refactor: 1 s per workload, each op checked against its oracle.
# The benchmark is its own package, so these two steps build it apart
# from the workspace.
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all --smoke

echo "== public API listing is current"
cargo run --release --offline -p bench --bin api_listing -- --check

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== ci.sh: all green"
