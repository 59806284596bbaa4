#!/usr/bin/env bash
# One-command verification gate: fresh configure, build, full test suite,
# a short instrumented benchmark pass that must emit the metrics
# artifacts (BENCH_gemm.json, BENCH_layers.json) and pass its A/B gates
# (the binary's exit status), a thread-count identity gate
# (REPRO_SCALE=smoke, ADV_THREADS=1 vs 3, each training its own models)
# proving that training reproduces the trained models and that crafting
# oblivious attacks as per-thread image slices reproduces the
# single-slice attack artifacts and success counters bit for bit, the
# threat-model and
# serving benches (each holds its own gates: a FAIL: line and a nonzero
# exit), a ThreadSanitizer pass over the concurrency tests (its own build
# tree, <build-dir>-tsan), and an AddressSanitizer + UBSan pass over the
# parsers, the daemon, row-block passes, sliced attacks, the active-set
# engine's gathered sub-batches, whole-model passes, training, concurrent
# passes, the thread pool and the GEMM, direct-conv and paired
# ReLU + MaxPool2d kernels (<build-dir>-asan).
#
# A vectorization stage fails unless GCC reports every loop marked
# `// ci:vectorized` as vectorized: a loop that falls back to a branch
# per element computes the same bits, so no identity gate sees it.
#
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
# Env:   ADV_OBS=0 pins the instrumentation off (overhead A/B runs);
#        JOBS=N overrides the parallelism (default: nproc).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-build-ci}"
jobs="${JOBS:-$(nproc)}"

cd "$repo_root"

echo "== configure ($build_dir) =="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== build (-j$jobs) =="
cmake --build "$build_dir" -j"$jobs"

echo "== ctest =="
ctest --test-dir "$build_dir" --output-on-failure -j"$jobs"

fail=0

echo "== vectorization (// ci:vectorized loops) =="
# The element-wise hot loops (the fused ISTA and sign steps every attack
# iteration runs, ReLU backward, the 2x2 MaxPool2d forward) are written as
# selects over values so GCC vectorizes them at the baseline ISA
# (DESIGN.md §6). Each carries a `// ci:vectorized` marker on its `for`
# line; the source is recompiled with its compile_commands.json command
# plus -fopt-info-vec-optimized, and every marked line must appear in the
# report as "loop vectorized".
vec_report() {  # vec_report <source>: the compiler's vectorization report
  python3 - "$build_dir/compile_commands.json" "$repo_root/$1" <<'PY'
import json, os, shlex, subprocess, sys
db, src = sys.argv[1], sys.argv[2]
entry = next(e for e in json.load(open(db)) if e["file"] == src)
args = shlex.split(entry["command"])
args[args.index("-o") + 1] = os.devnull
sys.exit(subprocess.run(args + ["-fopt-info-vec-optimized"],
                        cwd=entry["directory"]).returncode)
PY
}
for src in src/attacks/fused.cpp src/nn/activations.cpp src/nn/pool.cpp; do
  if ! report="$(vec_report "$src" 2>&1)"; then
    echo "FAIL: recompiling $src for its vectorization report" >&2
    echo "$report" >&2
    fail=1
    continue
  fi
  marked="$(grep -n 'ci:vectorized' "$src" | cut -d: -f1 || true)"
  if [ -z "$marked" ]; then
    echo "FAIL: $src has no // ci:vectorized loop" >&2
    fail=1
  fi
  for line in $marked; do
    if grep -q "$src:$line:[0-9]*: optimized: loop vectorized" <<<"$report"; then
      echo "ok: $src:$line vectorized"
    else
      echo "FAIL: $src:$line is marked // ci:vectorized but did not vectorize" >&2
      fail=1
    fi
  done
done

echo "== fault injection (ADV_FAULT, label: fault) =="
# Re-run the recovery-path tests with ADV_FAULT set in the environment.
# The site is benign (nothing in the tests hits `ci.smoke`) — the point is
# proving the env plumbing arms the registry (FailpointEnv no longer
# skips) while every armed-by-test recovery scenario still passes with the
# global failpoint state active.
ADV_FAULT='ci.smoke:fail_once' \
  ctest --test-dir "$build_dir" -L fault --output-on-failure -j"$jobs"

echo "== micro benchmarks (metrics emission and gates) =="
# A filtered run keeps CI fast; the binary still writes BENCH_gemm.json,
# BENCH_conv.json, BENCH_attack_engine.json and, with instrumentation on,
# BENCH_layers.json on exit. It also holds the A/B gates and exits
# non-zero with a FAIL: line when one fails: direct conv bitwise-identical
# to im2col on every benched shape, the MagNet 3x3 "same" forwards at
# least 2x faster than im2col, and the active-set attack engine's DeepFool
# run skipping exactly 2814 row-passes (its retirement schedule of fooled
# rows, counted by a forwarding target, so it holds with ADV_OBS=0 too).
# The timed EAD run next to it (plain ISTA, kappa = 15) has no gate.
(cd "$build_dir" &&
 ./bench/micro_benchmarks --benchmark_filter='BM_Gemm/256' \
                          --benchmark_min_time=0.05) || fail=1

for artifact in BENCH_gemm.json BENCH_layers.json BENCH_attack_engine.json \
                BENCH_conv.json; do
  if [ -s "$build_dir/$artifact" ]; then
    echo "ok: $build_dir/$artifact"
  elif [ "$artifact" = BENCH_layers.json ] && [ "${ADV_OBS:-1}" = 0 ]; then
    echo "skipped: $artifact (ADV_OBS=0)"
  else
    echo "MISSING: $build_dir/$artifact" >&2
    fail=1
  fi
done

echo "== thread-count identity (REPRO_SCALE=smoke, ADV_THREADS=1 vs 3) =="
# Training runs each batch as fixed row blocks (nn::BlockedPass) and
# oblivious attacks craft as image slices, one per pool thread
# (attacks::craft_oblivious_slices); neither result depends on the pool
# size. Baseline: a smoke-scale table1 run at ADV_THREADS=1 trains the
# tiny models into a private cache and crafts the attack artifacts there.
# The second run, at ADV_THREADS=3, trains its own models into a cache of
# its own and cuts the 16 attack images into uneven 5/5/6 slices. The
# later stages share the baseline cache.
ident_cache="$repo_root/$build_dir/ident_ci/cache"
t3_cache="$repo_root/$build_dir/ident_ci/cache3"
t1_dir="$repo_root/$build_dir/ident_ci/threads1"
t3_dir="$repo_root/$build_dir/ident_ci/threads3"
table1="$repo_root/$build_dir/bench/table1_attack_comparison"
rm -rf "$repo_root/$build_dir/ident_ci"
mkdir -p "$ident_cache" "$t3_cache" "$t1_dir" "$t3_dir"

(cd "$t1_dir" &&
 REPRO_SCALE=smoke REPRO_CACHE_DIR="$ident_cache" ADV_THREADS=1 \
   "$table1" > table1.out) || fail=1

(cd "$t3_dir" &&
 REPRO_SCALE=smoke REPRO_CACHE_DIR="$t3_cache" ADV_THREADS=3 \
   "$table1" > table1.out) || fail=1

# Gate 1: both caches hold the same files, and every one (each trained
# model and each atk_*.bin attack artifact) is bitwise identical.
if diff <(cd "$ident_cache" && ls) <(cd "$t3_cache" && ls) > /dev/null; then
  echo "ok: both model caches hold the same files"
else
  echo "FAIL: the ADV_THREADS=1 and ADV_THREADS=3 caches hold different files" >&2
  fail=1
fi
for f in "$ident_cache"/*; do
  name="$(basename "$f")"
  if cmp -s "$f" "$t3_cache/$name"; then
    echo "ok: $name identical (3 threads vs 1)"
  else
    echo "FAIL: $name differs between ADV_THREADS=1 and ADV_THREADS=3" >&2
    fail=1
  fi
done

# Gate 2: the per-attack success/image counters in BENCH_attacks.json
# match exactly.
extract_counts() {
  grep -E '"key": "attack/[^"]*/(successes|images)"' "$1" | sort
}
if diff <(extract_counts "$t1_dir/BENCH_attacks.json") \
        <(extract_counts "$t3_dir/BENCH_attacks.json"); then
  echo "ok: attack success/image counters match across thread counts"
else
  echo "FAIL: BENCH_attacks.json counters diverge across thread counts" >&2
  fail=1
fi

echo "== threat-model bench (REPRO_SCALE=smoke, ADV_THREADS=3) =="
# table1_threat_models crafts every registry attack under all three
# threat models (sharing the ident_ci model cache; attack artifacts are
# removed first so every oblivious cell is crafted fresh) and writes
# BENCH_threatmodel.json. The binary exits 1 unless
# threat/oblivious_identity is 1: one unsliced run through an
# ObliviousTarget reproduced the sliced nn::Sequential& path bitwise (at
# ADV_THREADS=3, so there are slices). Here: the dump covers all three
# threat models.
threat_dir="$repo_root/$build_dir/threat_ci"
threat_bench="$repo_root/$build_dir/bench/table1_threat_models"
rm -rf "$threat_dir"
mkdir -p "$threat_dir"
rm -f "$ident_cache"/atk_*.bin
if (cd "$threat_dir" &&
    REPRO_SCALE=smoke REPRO_CACHE_DIR="$ident_cache" ADV_THREADS=3 \
      "$threat_bench" > threat.out); then
  echo "ok: oblivious sliced path bitwise-identical to the unsliced target"
else
  echo "FAIL: table1_threat_models exited nonzero (see $threat_dir/threat.out)" >&2
  fail=1
fi

if [ -s "$threat_dir/BENCH_threatmodel.json" ]; then
  for tm in oblivious gray-box detector-aware; do
    if grep -q "/$tm/" "$threat_dir/BENCH_threatmodel.json"; then
      echo "ok: BENCH_threatmodel.json covers threat model '$tm'"
    else
      echo "FAIL: BENCH_threatmodel.json missing threat model '$tm'" >&2
      fail=1
    fi
  done
else
  echo "MISSING: $threat_dir/BENCH_threatmodel.json" >&2
  fail=1
fi

echo "== serve tests (label: serve) =="
# The serving battery (micro-batching identity, fault containment,
# protocol robustness, soak) already ran in the full ctest pass; re-run
# it by label so a serving regression is called out on its own.
ctest --test-dir "$build_dir" -L serve --output-on-failure -j"$jobs"

echo "== serve chaos (ADV_FAULT latency faults, label: serve) =="
# Same pattern as the fault-label re-run above, with the latency grammar:
# arm delay + stall(_after, never reached in practice) sites from the
# environment and re-run the serving battery. Proves the env plumbing
# parses the delay/stall actions and that the whole battery — including
# the chaos soak, which arms its own faults on top — passes with global
# latency-fault state active.
ADV_FAULT='serve.batch_forward:delay=1,serve.model_load:delay=1,ci.smoke:stall_after=1000000' \
  ctest --test-dir "$build_dir" -L serve --output-on-failure -j"$jobs"

echo "== serving bench (REPRO_SCALE=smoke) =="
# serve_bench builds the default MNIST MagNet (sharing the ident_ci
# cache, so models are already trained), replays a fixed request set
# through concurrent clients against a daemon with one batch executor and
# one with three, and compares every response bitwise against the serial
# one-request-at-a-time pipeline; it then load-tests in-flight depths
# 1/2/4/8 at the derived executor count (printed below; 3 at
# ADV_THREADS=1 on 4 cores), then saturates a tiny daemon. The
# binary exits 1, with a FAIL: line, unless the responses were identical
# (gauge serve/bench/identity), the overload phase shed work AND expired
# deadlines, and its accounting invariant held (requests == ok + errors
# + shed + deadline_expired). Here: BENCH_serve.json carries
# p50/p99/throughput for every depth.
serve_dir="$repo_root/$build_dir/serve_ci"
serve_bench="$repo_root/$build_dir/bench/serve_bench"
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
if (cd "$serve_dir" &&
    REPRO_SCALE=smoke REPRO_CACHE_DIR="$ident_cache" ADV_THREADS=1 \
      "$serve_bench" > serve.out); then
  echo "ok: serve_bench gates passed (batched == serial, overload shed/expired/accounted)"
else
  echo "FAIL: serve_bench exited nonzero (see $serve_dir/serve.out)" >&2
  fail=1
fi

if [ -s "$serve_dir/BENCH_serve.json" ]; then
  serve_shape_ok=1
  for d in 1 2 4 8; do
    for m in p50_ms p99_ms throughput_rps mean_batch_rows; do
      if ! grep -q "\"key\": \"serve/bench/depth$d/$m\"" \
             "$serve_dir/BENCH_serve.json"; then
        echo "FAIL: BENCH_serve.json missing serve/bench/depth$d/$m" >&2
        serve_shape_ok=0
        fail=1
      fi
    done
  done
  if [ "$serve_shape_ok" = 1 ]; then
    echo "ok: BENCH_serve.json covers depths 1/2/4/8 (p50/p99/throughput/occupancy)"
  fi
  executors="$(grep -o '"serve/bench/executors", "kind": "gauge", "value": [0-9.]*' \
                 "$serve_dir/BENCH_serve.json" | sed 's/.*: //')"
  echo "serve_bench load phases: ${executors:-unrecorded} batch executors"
else
  echo "MISSING: $serve_dir/BENCH_serve.json" >&2
  fail=1
fi

# sanitize_build <tree suffix> <compiler flags> <target...>: configures
# and builds the targets in a sanitizer tree of their own,
# <build-dir>-<suffix>.
sanitize_build() {
  local tree="$repo_root/${build_dir}-$1"
  cmake -B "$tree" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="$2" > /dev/null
  cmake --build "$tree" -j"$jobs" --target "${@:3}"
}
# sanitize_run <tree suffix> <NAME_OPTIONS=...> <ADV_THREADS, empty for
# the caller's pool size> <test binary>: any sanitizer report fails the
# gate (the options turn the first one into a nonzero exit).
sanitize_run() {
  local tree="$repo_root/${build_dir}-$1"
  local label="$4${3:+ at ADV_THREADS=$3}"
  if env ${3:+"ADV_THREADS=$3"} "$2" "$tree/tests/$4" \
       > "$tree/sanitizer.out" 2>&1; then
    echo "ok: $label clean under $1"
  else
    echo "FAIL: $label under $1 (see $tree/sanitizer.out)" >&2
    cat "$tree/sanitizer.out" >&2
    fail=1
  fi
}

echo "== thread sanitizer (concurrency tests) =="
# Concurrent passes over shared models (classify threads, row-parallel
# attacks), row-block passes (nn::Sequential splitting Eval/Infer batches
# across the pool, kernels nested inline), sliced oblivious attacks (one
# ObliviousTarget per pool chunk over a shared classifier), the daemon
# (start/stop under connecting clients, the watchdog's retired
# executors), the failpoint registry, the thread pool and the obs
# atomics, plus the rest of the serve and fault test binaries (the wire
# protocol, tensor files, the trainer's checkpoints and its row-blocked
# steps: each block's passes on its own pool task), rebuilt with
# -fsanitize=thread. The pool-heavy binaries run a second time at
# ADV_THREADS=3, which cuts batches into uneven row blocks and slices
# (and, for trainer_test, runs a step's four row blocks on three threads).
sanitize_build tsan -fsanitize=thread \
  concurrency_test thread_pool_test obs_test serve_test row_block_test \
  oblivious_slice_test fault_test protocol_test serialize_test trainer_test
for t in concurrency_test thread_pool_test obs_test row_block_test \
         oblivious_slice_test serve_test fault_test protocol_test \
         serialize_test trainer_test; do
  sanitize_run tsan TSAN_OPTIONS=halt_on_error=1 "" "$t"
done
for t in concurrency_test thread_pool_test row_block_test \
         oblivious_slice_test trainer_test; do
  sanitize_run tsan TSAN_OPTIONS=halt_on_error=1 3 "$t"
done

echo "== address + undefined-behaviour sanitizer =="
# The byte parsers (tensor files and the serve wire protocol, with their
# truncation and byte-flip sweeps and seeded mutants), the daemon,
# row-block passes, sliced attacks, the active-set engine (every attack's
# gather and scatter indexing), whole-model passes, training and
# concurrent passes (every intermediate a layer allocates is freed by its
# owner: row-block parts, fused-activation tape copies, per-chunk conv
# scratch), the thread pool, and the GEMM, direct-conv and paired
# ReLU + MaxPool2d kernels (their tail tiles store fewer lanes than a
# vector holds, and nn_layers_test pools rows that end where their
# allocation does; a load or store past it fails here), rebuilt with
# -fsanitize=address,undefined.
# UB is fatal (-fno-sanitize-recover), and leak detection is on.
sanitize_build asan \
  "-fsanitize=address,undefined -fno-sanitize-recover=undefined" \
  serialize_test protocol_test serve_test row_block_test thread_pool_test \
  oblivious_slice_test attack_engine_test gemm_test gemm_blocked_test \
  nn_layers_test sequential_test trainer_test concurrency_test
for t in serialize_test protocol_test serve_test row_block_test \
         thread_pool_test oblivious_slice_test attack_engine_test gemm_test \
         gemm_blocked_test nn_layers_test sequential_test trainer_test \
         concurrency_test; do
  sanitize_run asan ASAN_OPTIONS=detect_leaks=1 "" "$t"
done
exit "$fail"
