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
for entry in comm:46 odin:28 seamless:43; do
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

echo "== pools pull (each serve pool driver takes its own work)"
# A free pool driver takes its next job from the tenant queues under the
# `sched` lock and parks on `work_cv` until there is one, so `serve` spawns
# one kind of thread and polls nothing: a second spawn site is a scheduler
# thread growing back, and a `Bounded` queue, a timed pop or a millisecond
# constant is a staging queue or a polling tick. The retry backoff
# constants in `pool.rs` are the one wall-clock constant left.
serve_spawns=0
for f in crates/serve/src/*.rs; do
  serve_code=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f")
  if grep -nwE 'Bounded|pop_timeout|recv_timeout' <<<"$serve_code"; then
    echo "pull gate: $f stages or polls work outside the tenant queues" >&2
    exit 1
  fi
  if grep -n 'Duration::from_millis' <<<"$serve_code" \
      | grep -vE 'const BACKOFF_(BASE|MAX): Duration = Duration::from_millis'; then
    echo "pull gate: $f has a millisecond constant outside the retry backoff" >&2
    exit 1
  fi
  serve_spawns=$((serve_spawns + $(grep -cE '\.spawn\(|thread::spawn' <<<"$serve_code" || true)))
done
echo "-- thread-spawn sites in crates/serve/src: $serve_spawns"
if [ "$serve_spawns" -ne 1 ]; then
  echo "pull gate: crates/serve/src spawns threads in $serve_spawns places, expected 1 (the pool driver)" >&2
  exit 1
fi
if [ -e crates/comm/src/queue.rs ]; then
  echo "pull gate: crates/comm/src/queue.rs is back; serve's queues are the tenant lanes" >&2
  exit 1
fi

echo "== one elementwise executor (workers run every ufunc, where and full fold as a kernel)"
# Eager ufuncs, `where` and full reductions are trace statements that
# run as kernels (with fold tails) through `exec_kernel`; the
# per-op buffer loops live on only as the master-side serial oracle
# (`odin::reference`). One of them on the worker — or a second
# `Fold::new` site — is the second whole-array path growing back.
worker_code=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/odin/src/worker.rs)
if grep -nE 'apply_unary|apply_binary|binop_|Select' <<<"$worker_code"; then
  echo "elementwise gate: crates/odin/src/worker.rs computes ufuncs or selects outside exec_kernel" >&2
  exit 1
fi
folds=$(grep -c 'Fold::new' <<<"$worker_code" || true)
echo "-- Fold::new sites in worker.rs: $folds"
if [ "$folds" -ne 1 ]; then
  echo "elementwise gate: crates/odin/src/worker.rs folds in $folds places, expected exactly 1" >&2
  exit 1
fi

echo "== scalar reductions are one round trip (workers reply partials, the master folds)"
# Every worker replies its whole-array partials and its arg candidate, and
# the master combines them, so no scalar result waits on a worker
# collective and no worker answers for the pool. An `allreduce` in the
# command or kernel executor, `Fold` or `arg_best`, or a `rank == 0`
# reply, is the three-hop reduction growing back; axis reductions
# (`exec_reduce`) and `cumsum` (`scan`) keep theirs: their results are
# arrays. `item_body` prints an item from its first line to its closing `}`.
item_body() { awk -v head="$1" 'index($0, head) == 1 {on = 1} on {print} on && /^}/ {exit}' <<<"$worker_code"; }
for item in 'fn exec_cmd' 'fn exec_kernel' 'pub(crate) struct Fold' 'impl Fold' 'pub(crate) fn arg_best'; do
  if [ -z "$(item_body "$item")" ]; then
    echo "round-trip gate: '$item' not found in crates/odin/src/worker.rs; update the gate" >&2
    exit 1
  fi
  if item_body "$item" | grep -n 'allreduce'; then
    echo "round-trip gate: '$item' in crates/odin/src/worker.rs calls a worker collective" >&2
    exit 1
  fi
done
if grep -nE 'rank\(\) == 0|rank == 0' <<<"$worker_code"; then
  echo "round-trip gate: crates/odin/src/worker.rs has a worker-0-only reply" >&2
  exit 1
fi

echo "== one check (Cmd::check decides every output layout and precondition)"
# The master checks every command before it buffers it, and each worker
# checks it again before it executes it; both record, and each worker
# stores, every array a command makes under the meta `Cmd::check` gives.
# The one worker insert site asserts each segment fits it. An `ArrayMeta`
# built by a master method or a worker executor is a second rule that can
# drift from the first, and an assert in a worker arm is a second check
# that kills a rank instead of refusing the command.
odin_code() { awk '/#\[cfg\(test\)\]/{exit} {print}' "$1"; }
# `ArrayMeta { … }` struct literals, not signatures returning one.
meta_literals() { odin_code "$1" | grep 'ArrayMeta {' | grep -v -- '-> &\?ArrayMeta {' || true; }
odin_sites() { odin_code "$1" | { grep -o 'assert\|expect(\|unwrap()\|panic!' || true; } | wc -l; }
if grep -rn 'fn results\|\.results(' crates/odin/src; then
  echo "check gate: Cmd::results is back beside Cmd::check" >&2
  exit 1
fi
checkers=$(for f in crates/odin/src/*.rs; do
  if odin_code "$f" | grep '\.check(' >/dev/null; then echo "$f"; fi; done | tr '\n' ' ')
echo "-- Cmd::check callers: $checkers"
if [ "$checkers" != "crates/odin/src/context.rs crates/odin/src/worker.rs " ]; then
  echo "check gate: .check( outside crates/odin/src/{context,worker}.rs" >&2
  exit 1
fi
protocol_sites=$(odin_sites crates/odin/src/protocol.rs)
exec_sites=$(( $(odin_sites crates/odin/src/worker.rs) + $(odin_sites crates/odin/src/slicing.rs) ))
echo "-- assert/expect/unwrap/panic sites: protocol.rs $protocol_sites, worker.rs + slicing.rs $exec_sites (ceiling 17)"
if [ "$protocol_sites" -ne 0 ]; then
  echo "check gate: crates/odin/src/protocol.rs panics instead of refusing" >&2
  exit 1
fi
if [ "$exec_sites" -gt 17 ]; then
  echo "check gate: worker.rs + slicing.rs hold $exec_sites panic sites, ceiling is 17" >&2
  exit 1
fi
recorders=$(for f in crates/odin/src/*.rs; do
  if odin_code "$f" | grep 'record_meta(' >/dev/null; then echo "$f"; fi; done | tr '\n' ' ')
echo "-- record_meta callers: $recorders"
if [ "$recorders" != "crates/odin/src/context.rs " ]; then
  echo "check gate: record_meta( outside crates/odin/src/context.rs" >&2
  exit 1
fi
if [ -n "$(meta_literals crates/odin/src/slicing.rs)" ]; then
  echo "check gate: crates/odin/src/slicing.rs builds an output meta" >&2
  exit 1
fi
# The one literal left in worker.rs is `store_dist_vector`'s (local mode).
metas=$(meta_literals crates/odin/src/worker.rs | grep -c . || true)
echo "-- ArrayMeta literals in worker.rs: $metas"
if [ "$metas" -ne 1 ]; then
  echo "check gate: crates/odin/src/worker.rs builds $metas metas, expected 1" >&2
  exit 1
fi
if grep -n 'pub axis' crates/odin/src/protocol.rs; then
  echo "check gate: arrays are split along axis 0 only; no axis field" >&2
  exit 1
fi

echo "== kernels keyed on structure (no literal lowers into a kernel body)"
# The trace's lowering binds every literal as a kernel scalar parameter, so
# expressions that differ only in their constants share one registration
# and one native build. A constant emitted into the body puts a value in
# the kernel's key, and every fresh constant pays a `cc` build again.
if odin_code crates/odin/src/program.rs | grep -nE 'emit_const|Const[FI]'; then
  echo "kernel-key gate: crates/odin/src/program.rs emits a constant into a kernel body" >&2
  exit 1
fi

echo "== one front end (eager ops and user kernels record; the next observation fuses)"
# Every elementwise op, full reduction and `Kernel::map` call records a
# statement into the context's trace, and `program.rs` lowers and
# launches what a flush keeps. Outside the wire codec and check
# (`protocol.rs`) and the executor (`worker.rs`), which read the command,
# an `EvalKernel` built anywhere else is a second front end growing back,
# and so is a trace handle.
launchers=$(for f in crates/odin/src/*.rs; do
  case "$f" in crates/odin/src/protocol.rs | crates/odin/src/worker.rs) continue ;; esac
  if odin_code "$f" | grep -q 'Cmd::EvalKernel {'; then echo "$f"; fi; done | tr '\n' ' ')
echo "-- Cmd::EvalKernel built in: $launchers"
if [ "$launchers" != "crates/odin/src/program.rs " ]; then
  echo "front-end gate: Cmd::EvalKernel { built outside crates/odin/src/program.rs" >&2
  exit 1
fi
if grep -rnE 'fn trace\b|Traced|ProgramRun' crates/odin/src; then
  echo "front-end gate: a trace-handle front end is back in crates/odin/src" >&2
  exit 1
fi

echo "== one slicer (a slice is a view; the flush materializes the rest)"
# `DistArray::slice` records a view into the trace. The flush reads a
# dropped one in place as a kernel input window, and materializes every
# other with `Cmd::Slice`, one literal in `program.rs`. Outside the wire
# codec and check (`protocol.rs`) and the executor (`worker.rs`), a
# `Cmd::Slice` built anywhere else is a slice posted before the flush
# can read it in place, a second slicer growing back.
slicers=$(for f in crates/odin/src/*.rs; do
  case "$f" in crates/odin/src/protocol.rs | crates/odin/src/worker.rs) continue ;; esac
  if odin_code "$f" | grep -q 'Cmd::Slice {'; then echo "$f"; fi; done | tr '\n' ' ')
echo "-- Cmd::Slice built in: $slicers"
if [ "$slicers" != "crates/odin/src/program.rs " ]; then
  echo "slicer gate: Cmd::Slice { built outside crates/odin/src/program.rs" >&2
  exit 1
fi
if [ "$(odin_code crates/odin/src/program.rs | grep -c 'Cmd::Slice {')" -ne 1 ]; then
  echo "slicer gate: crates/odin/src/program.rs builds Cmd::Slice in more than one place" >&2
  exit 1
fi

echo "== one comm ledger (CommStats counts every event; stats.rs alone names its series)"
# A rank counts each message, fault and cache event once, in `CommStats`,
# and `CommStats::publish` writes the rank's registry series from it when
# the rank ends. One of those 17 keys named anywhere else in comm is a
# second count growing back, and so is a cache of per-event handles.
ledger_keys='"(comm\.(msgs|bytes)_(sent|recv)|comm\.zerocopy_(msgs|bytes)|comm\.(retransmits|dropped|corrupt|dup_suppressed|corrupt_skipped_region|region_integrity_checked|overlap_s)|cache\.plan_(hits|misses)|pool\.(buffer_reuse|buffer_pool_evictions))"'
published=$(grep -oE "$ledger_keys" crates/comm/src/stats.rs | sort -u | wc -l)
echo "-- series published by crates/comm/src/stats.rs: $published"
if [ "$published" -ne 17 ]; then
  echo "ledger gate: stats.rs names $published of the 17 series; update the gate with the table" >&2
  exit 1
fi
if grep -rnE "$ledger_keys" --include='*.rs' crates/comm/src | grep -v '^crates/comm/src/stats.rs:'; then
  echo "ledger gate: a CommStats series is named outside crates/comm/src/stats.rs" >&2
  exit 1
fi
if grep -rn 'ObsHandles' crates/comm/src; then
  echo "ledger gate: ObsHandles is back; the registry is published from CommStats" >&2
  exit 1
fi

echo "== one odin ledger (ContextStats counts every event; publish alone names its series)"
# The ODIN master counts each post, reply, launch and kernel registration
# once, in `ContextStats`, and `ContextStats::publish` writes the
# `odin.*` and `fusion.*` series from it when the context drops. A
# registry write or a series key anywhere else in odin above the tests is
# a second count growing back; a reset makes the ledger a phase, not a
# lifetime.
publish_body=$(awk '/fn publish\(&self\)/ {on = 1} on {print} on && /^    }$/ {exit}' \
  crates/odin/src/context.rs)
registry_writes=$(for f in crates/odin/src/*.rs; do odin_code "$f" | grep -o 'obs::global()' || true; done | wc -l)
echo "-- obs::global() in odin above the tests: $registry_writes (in publish: $(grep -c 'obs::global()' <<<"$publish_body"))"
if [ "$registry_writes" -ne 1 ] || ! grep -q 'obs::global()' <<<"$publish_body"; then
  echo "odin ledger gate: the registry is written outside ContextStats::publish" >&2
  exit 1
fi
odin_keys='"(odin|fusion)\.[a-z_.]+"'
stray=$(for f in crates/odin/src/*.rs; do odin_code "$f" | grep -oE "$odin_keys" || true; done | sort | uniq -d)
all_keys=$(for f in crates/odin/src/*.rs; do odin_code "$f" | grep -oE "$odin_keys" || true; done | sort -u)
table_keys=$(grep -oE "$odin_keys" <<<"$publish_body" | sort -u)
if [ -n "$stray" ] || [ "$all_keys" != "$table_keys" ]; then
  echo "odin ledger gate: an odin./fusion. series is named outside the publish table: $stray" >&2
  exit 1
fi
fields=$(awk '/^pub struct ContextStats/ {on = 1; next} on && /^}/ {exit}
  on {if (match($0, /pub [a-z_]+: u64/)) print substr($0, RSTART + 4, RLENGTH - 9)}' crates/odin/src/context.rs)
rows=$(grep -cE "\(\"(odin|fusion)\.[a-z_.]+\", self\.[a-z_]+\)" <<<"$publish_body")
echo "-- ContextStats counters: $(wc -w <<<"$fields"); counter rows in the publish table: $rows"
for f in $fields; do
  grep -q "self\.$f)" <<<"$publish_body" || { echo "odin ledger gate: ContextStats::$f is not published" >&2; exit 1; }
done
[ "$(wc -w <<<"$fields")" -eq "$rows" ] || {
  echo "odin ledger gate: the publish table and ContextStats disagree" >&2
  exit 1
}
if grep -rn 'reset_stats' --include='*.rs' crates src tests examples benchmark/src; then
  echo "odin ledger gate: reset_stats is back; read deltas of stats()" >&2
  exit 1
fi

echo "== unsafe allowlist (FFI, the check-free SpMV sweep, nothing else)"
# `unsafe` lives where safe code cannot reach: the native kernel tier's
# FFI (seamless `codegen`, `cmodule`), the test suite's counting global
# allocator, the benchmark's CPU-affinity syscalls, and the CSR sweep,
# whose column ids were proven in range when the matrix was built
# (DESIGN §6). `api_listing` only names the keyword in strings. Every
# block in csr.rs sits directly under a `// SAFETY:` line, and csr.rs holds
# at most its committed number of blocks: lower the ceiling when one goes,
# never raise it without a reason in the PR.
csr_unsafe_ceiling=1
for f in $(grep -rlw 'unsafe' --include='*.rs' crates src tests examples benchmark/src | sort); do
  case "$f" in
    crates/seamless/src/codegen.rs | crates/seamless/src/cmodule.rs | tests/alloc_free.rs \
      | benchmark/src/awake.rs | crates/dlinalg/src/csr.rs) ;;
    crates/bench/src/bin/api_listing.rs)
      if grep -nw 'unsafe' "$f" | grep -v '"[^"]*unsafe[^"]*"'; then
        echo "unsafe gate: $f uses unsafe outside a string literal" >&2
        exit 1
      fi
      ;;
    *)
      echo "unsafe gate: $f uses unsafe; it is allowed only in the files ci.sh lists" >&2
      exit 1
      ;;
  esac
done
csr_blocks=$(grep -cw 'unsafe' crates/dlinalg/src/csr.rs || true)
echo "-- unsafe in crates/dlinalg/src/csr.rs: $csr_blocks (ceiling $csr_unsafe_ceiling)"
if [ "$csr_blocks" -gt "$csr_unsafe_ceiling" ]; then
  echo "unsafe gate: crates/dlinalg/src/csr.rs has $csr_blocks unsafe sites, ceiling is $csr_unsafe_ceiling" >&2
  exit 1
fi
if awk '/(^|[^a-z_])unsafe([^a-z_]|$)/ && prev !~ /^[[:space:]]*\/\/ SAFETY:/ {print FILENAME ":" FNR ": " $0; bad = 1}
        {prev = $0} END {exit !bad}' crates/dlinalg/src/csr.rs; then
  echo "unsafe gate: an unsafe block in crates/dlinalg/src/csr.rs has no // SAFETY: line directly above it" >&2
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

echo "== docs (DESIGN and EXPERIMENTS describe the tree as it is)"
# DESIGN.md is one section per layer: a module table, invariants that
# each name their owner, decisions. This step fails on drift: (a) a
# `DESIGN §N[.M]` reference without that heading, (b) a named test
# (`tests/<file>.rs::<fn>`, `<crate>[::<module>]::tests::<fn>`, or a brace
# list of either) or `ci.sh`'s *step* that does not exist, or an
# invariant (one bullet on one line) that names no owner, (c) a crate
# whose module table differs from its `src/*.rs`, (d) a document over its
# line ceiling. The ceilings ratchet like the panic sites: lower one when
# a document shrinks, never raise one without a reason in CHANGES.md.
docs_fail() {
  echo "docs gate: $*" >&2
  exit 1
}
design_heads=$(grep -oE '^##+ [0-9]+(\.[0-9]+)?' DESIGN.md | awk '{print $2}')
while IFS=: read -r file ref; do
  [ -n "$ref" ] || continue
  n=$(grep -oE '[0-9]+(\.[0-9]+)?' <<<"$ref")
  grep -qxF "$n" <<<"$design_heads" || docs_fail "$file cites DESIGN §$n, which has no heading"
done < <(grep -roE 'DESIGN(\.md)? ?§ ?[0-9]+(\.[0-9]+)?' crates src tests ci.sh README.md EXPERIMENTS.md \
  .claude/skills/verify/SKILL.md || true)
# Expand `prefix::{a, b}` to one `prefix::name` per line.
expand_names() {
  sed -E 's/[{}]//g' | awk -F'::' '{n = split($NF, f, ","); p = $1
    for (i = 2; i < NF; i++) p = p "::" $i
    for (i = 1; i <= n; i++) { gsub(/[ `…]/, "", f[i]); if (f[i] != "") print p "::" f[i] } }'
}
docs_text=$(cat DESIGN.md EXPERIMENTS.md | tr '\n' ' ')
owners=0
while read -r owner; do
  fn=${owner##*::} path=${owner%::*}
  case "$path" in
    tests/*.rs) file=$path ;;
    *::*::tests) file=$(awk -F'::' '{print "crates/" $1 "/src/" $2 ".rs"}' <<<"$path") ;;
    *::tests) file="crates/${path%%::*}/src/lib.rs" ;;
  esac
  [ -f "$file" ] || docs_fail "$owner: no file $file"
  grep -qE "fn $fn\b" "$file" || docs_fail "$owner: no fn $fn in $file"
  owners=$((owners + 1))
done < <(grep -oE 'tests/[a-z_]+\.rs::(\{[^}]*\}|[a-z_0-9]+)|\b[a-z_]+::([a-z_]+::)?tests::(\{[^}]*\}|[a-z_0-9]+)' \
  <<<"$docs_text" | expand_names)
while read -r step; do
  grep -qF "echo \"== $step" ci.sh || docs_fail "no ci.sh step named '$step'"
done < <(grep -oE "\`ci\.sh\`'s \*[^*]+\*" <<<"$docs_text" | sed -E "s/^[^*]*\*//; s/\*$//")
unowned=$(awk '/^### [0-9]+\.2 Invariants/ {on = 1; next} /^#/ {on = 0}
  on && /^- / && !/tests\/[a-z_]+\.rs::|::tests::|`ci\.sh`.s \*/ {print FNR ": " $0}' DESIGN.md)
[ -z "$unowned" ] || docs_fail "an invariant names no owner: $unowned"
named=$(awk '/^## / {sec = $2} match($0, /^\| `[a-z_]+::[a-z_]+` \|/) {
  split(substr($0, 4, RLENGTH - 6), m, "::"); print sec, m[1], m[2]}' DESIGN.md)
for dir in crates/*/; do
  crate=$(basename "$dir")
  secs=$(awk -v c="$crate" '$2 == c {print $1}' <<<"$named" | sort -u | wc -l)
  [ "$secs" -eq 1 ] || docs_fail "crate $crate is tabled in $secs DESIGN sections, expected 1"
  on_disk=$(basename -a -s .rs "$dir"src/*.rs | sort | tr '\n' ' ')
  tabled=$(awk -v c="$crate" '$2 == c {print $3}' <<<"$named" | sort | tr '\n' ' ')
  [ "$on_disk" = "$tabled" ] || docs_fail "crate $crate: DESIGN tables '$tabled', disk has '$on_disk'"
done
echo "-- $owners named tests resolve; every crate's module table matches its src/"
for entry in DESIGN.md:467 EXPERIMENTS.md:312; do
  doc=${entry%%:*} ceiling=${entry##*:}
  lines=$(wc -l <"$doc")
  echo "-- $doc: $lines lines (ceiling $ceiling)"
  [ "$lines" -le "$ceiling" ] || docs_fail "$doc has $lines lines, ceiling is $ceiling"
done

echo "== native kernel tier: C compiler detection"
# The tiered kernel plane lowers straight-line bodies to C and compiles
# them with the system compiler (DESIGN.md §9). Without one, every
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

echo "== SpMV bounds guards in release"
# The CSR sweep reads its operands unchecked; its `debug_assert!`s vanish
# in release, the build the benchmark measures, so the parity grid and the
# `assert!`s its soundness rests on (operand lengths on every call, column
# range at build) are re-run there.
cargo test -q --release --offline --test spmv_grid
guards=(csr::tests::matvec_rejects_a_short_x_in_every_profile
  csr::tests::reference_matvec_rejects_a_long_y_in_every_profile
  csr::tests::an_out_of_domain_column_is_refused_at_build)
if ! cargo test -q --release --offline -p dlinalg --lib -- --exact "${guards[@]}" \
    | grep "test result: ok. ${#guards[@]} passed"; then
  echo "release guards: expected ${#guards[@]} dlinalg guard tests to run and pass" >&2
  exit 1
fi

echo "== tier-1 tests again with metrics recording on"
HPC_METRICS=1 cargo test -q --offline --workspace

echo "== kernel plane again with the native tier pinned off"
# The VM fallback must stay a first-class execution path, not a
# degraded one: the full kernel-plane suite (parity, chaos, recover), the
# eager ufunc grid and the slice-view grid re-run with every kernel forced
# onto the typed-register VM.
HPC_KERNEL_TIER=vm cargo test -q --offline --test kernel_plane --test eager_grid --test slice_views

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
