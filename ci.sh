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
for entry in comm:46 odin:48 seamless:43; do
  crate=${entry%%:*} ceiling=${entry##*:}
  sites=$(panic_sites "$crate")
  echo "-- $crate: $sites panic sites (ceiling $ceiling)"
  if [ "$sites" -gt "$ceiling" ]; then
    echo "panic-site ratchet: crates/$crate/src has $sites sites, ceiling is $ceiling" >&2
    exit 1
  fi
done

echo "== one exchange executor (nonblocking p2p stays in comm and dmap::CommPlan)"
# Every overlapped exchange outside `comm` goes through `CommPlan`. A
# nonblocking send/receive anywhere else is a second executor growing
# back.
p2p_sites=$(grep -rlE '\.isend[a-z_]*\(|\.irecv\(' --include='*.rs' crates/*/src src examples \
  | grep -v '^crates/comm/' | sort | tr '\n' ' ')
allowed="crates/dmap/src/import_export.rs "
echo "-- nonblocking p2p outside comm: $p2p_sites"
if [ "$p2p_sites" != "$allowed" ]; then
  echo "exchange gate: expected exactly '$allowed'" >&2
  exit 1
fi
# A cached plan build must not communicate (a rank that hits would skip
# what its peers enter), so the cache stays ignorant of anything that does.
if awk '/#\[cfg\(test\)\]/{exit} {print}' crates/dmap/src/plan_cache.rs \
    | grep -n 'alltoallv\|Directory\|CommPlan::gather'; then
  echo "plan-cache gate: a collectively built plan kind is growing back" >&2
  exit 1
fi

echo "== one mailbox (ODIN's control plane rides the rank mailbox)"
# The master posts through `comm::Host` and the workers idle in
# `Comm::recv_host`, so `odin` owns no channel and no timer of its own: a
# private queue, a timed poll or a millisecond constant there is the side
# channel, the idle pump or the liveness probe growing back.
for f in crates/odin/src/*.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
      | grep -n 'std::sync::mpsc\|recv_timeout\|Duration::from_millis\|Duration::from_micros'; then
    echo "mailbox gate: $f waits on something other than the rank mailbox" >&2
    exit 1
  fi
done

echo "== one elementwise executor (workers run every ufunc as a kernel)"
# Eager ufuncs are one-op kernels through `exec_kernel`; the per-op
# buffer loops live on only as the master-side serial oracle
# (`odin::reference`). One of them on the worker is the second
# elementwise path growing back.
if awk '/#\[cfg\(test\)\]/{exit} {print}' crates/odin/src/worker.rs \
    | grep -nE 'apply_unary|apply_binary|binop_'; then
  echo "elementwise gate: crates/odin/src/worker.rs computes ufuncs outside exec_kernel" >&2
  exit 1
fi

echo "== CHANGES entry size (one line per PR, at most 1200 bytes)"
# The newest entry says what changed, what was measured and where the
# detail lives; the detail itself belongs in DESIGN, EXPERIMENTS or the
# PR.
newest=$(tail -n 1 CHANGES.md | wc -c)
echo "-- newest CHANGES entry: $newest bytes"
if [ "$newest" -gt 1200 ]; then
  echo "CHANGES gate: the newest entry is $newest bytes, the cap is 1200" >&2
  exit 1
fi

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
# `--workspace`: plain `cargo test` at the root runs only the root
# package (tests/*.rs and the doctest); the crates' own unit tests
# (comm, solvers, dlinalg, dmap, ...) are gated here too.
cargo build --release --offline
cargo test -q --offline --workspace

echo "== tier-1 tests again with metrics recording on"
HPC_METRICS=1 cargo test -q --offline --workspace

echo "== kernel plane again with the native tier pinned off"
# The VM fallback must stay a first-class execution path, not a
# degraded one: the full kernel-plane suite (parity, chaos, recover) and
# the eager ufunc grid re-run with every kernel forced onto the
# typed-register VM.
HPC_KERNEL_TIER=vm cargo test -q --offline --test kernel_plane --test eager_grid

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

echo "== experiments --gate (wall-ratio gates: E20 jit, E21 tracing, E22 zero-copy, E25 native)"
# The four experiment gates that need release-build timings: jitted Expr
# >= 2x unfused, enabled tracing within 5% + 25 ms, region arm >= 5x the
# encode arm on 8 MiB payloads and faster on >= 1 MiB plan exchanges,
# native tier >= 10x the boxed interpreter and >= 4x the VM, with a fresh
# native invoke <= 2x its VM invoke (skipped and reported when no C
# compiler is armed). Every other experiment gate is a tier-1 test.
cargo run --release --offline -p bench --bin experiments -- --gate

echo "== modeled tables match the committed baseline (crates/bench/modeled_tables.txt)"
# The LogGP tables are exact virtual time, reproducible to the printed
# digit, so a change to them is a diff to review, not prose to trust: a
# PR that moves a makespan regenerates the file (the command below with
# `> crates/bench/modeled_tables.txt`) and the old -> new digits show in
# its diff. E18 stays out: its faulted rows are wall-clock RTO-driven
# (ROADMAP item 5).
cargo run --release --offline -p bench --bin experiments -- --only e03,e09,e12,e17,e19 \
  | diff crates/bench/modeled_tables.txt -

echo "== repo benchmark: harness unit tests + smoke pass of every workload"
# The five workloads' serial/bitwise oracles (benchmark/README.md) gate
# every refactor: 1 s per workload, each op checked against its oracle.
# The benchmark is its own package, so these two steps build it apart
# from the workspace.
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- all --smoke

echo "== public API listing is current, and every public name has a caller"
cargo run --release --offline -p bench --bin api_listing -- --check
# A public function or constant no other file uses is deleted, made
# private or given the missing test row; paper surface whose only tests
# sit beside it is listed, with its paper reference, in the tool's KEPT.
cargo run --release --offline -p bench --bin api_listing -- --unreferenced

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== ci.sh: all green"
