#!/usr/bin/env bash
# Repository health gate: formatting, lints, build, tests. Run before pushing.
#
#   scripts/check.sh           full gate (fmt, clippy, release build, tests,
#                              the paged store's space gate in release
#                              mode, bench smoke)
#   scripts/check.sh --fast    skip clippy (the slowest step) for quick loops
#   scripts/check.sh --seed N  replay every seeded suite — each target with
#                              a file that calls `Seed::from_env` — with
#                              HEDC_TEST_SEED=N (the seed a failing run
#                              prints; decimal or 0x hex), then exit — no
#                              full gate
#   scripts/check.sh --bench-smoke
#                              run only the bench-binary smoke pass (each
#                              harness binary on a tiny config, seconds not
#                              minutes), then exit
#   scripts/check.sh --ingest-smoke
#                              run only the ingest pipeline smoke: a tiny
#                              downlink-day load (serial + parallel) plus a
#                              WAL crash/resume cycle, then exit
#   scripts/check.sh --obs-smoke
#                              run only the observability smoke: boot a node,
#                              force a slow trace, and assert it pins in the
#                              flight recorder, serves /hedc/trace/<id>, and
#                              surfaces exemplar/saturation/flight fields in
#                              stats.json, then exit
#   scripts/check.sh --pl-smoke
#                              run only the PL redundancy smoke: the
#                              zipf duplicate-heavy pl_bench on a tiny
#                              config plus the seeded coalescing/fairness/
#                              staleness suites, then exit
#   scripts/check.sh --shard-smoke
#                              run only the sharding smoke: the seeded
#                              scatter-gather oracle, shard-failover,
#                              rebalance crash-matrix, and epoch-churn
#                              suites plus the fig5_shards scale-out sweep
#                              on a tiny config, then exit
#   scripts/check.sh --net-smoke
#                              run only the net-tier smoke: the hedc-net
#                              suites in release mode (seeded multiplexing/
#                              churn/slow-client/epoch suites, the response
#                              spill path, the no-timers wake-up budgets,
#                              the wire mutation/round-trip/budget suites),
#                              no serde_json under crates/net/src, and the
#                              cluster_scatter benchmark workload at smoke
#                              size, which must answer correctly, then exit
#   scripts/check.sh --e2e-smoke
#                              run only the frozen-benchmark drift gate:
#                              build e2e_bench/ (the repo's performance
#                              gate, see BENCHMARK.json) and run its own
#                              tests against the current crates, then exit
#
# The full gate also fails if the test run minted new proptest-regressions
# entries: a fresh regression file is a real counterexample that must be
# committed alongside its fix, never silently accumulated.
set -euo pipefail
cd "$(dirname "$0")/.."

# The smoke modes, in full-gate order: `--<name>-smoke` runs `<name>_smoke`
# alone; the full gate runs them all.
smokes=(bench ingest obs pl shard net e2e)
usage="usage: $0 [--fast] $(printf -- '[--%s-smoke] ' "${smokes[@]}")[--seed N]"

fast=0
seed=""
only=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) fast=1; shift ;;
    --seed)
      [[ $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }
      seed="$2"; shift 2
      # The grammar of hedc_obs::parse_seed (a u64, decimal or 0x hex): a
      # seed the suites would refuse must not get as far as building them.
      [[ "$seed" =~ ^(0[xX][0-9a-fA-F]{1,16}|[0-9]{1,19}|1[0-9]{19})$ ]] \
        && ! [[ ${#seed} -eq 20 && "$seed" > 18446744073709551615 ]] \
        || { echo "$0: --seed $seed: not a decimal or 0x-hex u64" >&2; exit 2; } ;;
    --*-smoke)
      only="${1#--}"; only="${only%-smoke}"
      [[ " ${smokes[*]} " == *" $only "* ]] || { echo "$usage" >&2; exit 2; }
      shift ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

# The north-star number (ROADMAP: `crates/*/src` should go down), printed by
# every gate run so a PR's effect on it is never a separate measurement.
echo "==> crates/*/src: $(find crates -path '*/src/*' -name '*.rs' -print0 | xargs -0 cat | wc -l) lines"
echo "==> test tree:    $(find crates/*/tests tests -name '*.rs' -print0 | xargs -0 cat | wc -l) lines"
# One test kit: the seed has one reader and the `hle` tuple one spelling
# (`hedc_obs::Seed::from_env`, `hedc_dm::testkit::HleRow::into_values`).
seed_readers="$(grep -rn 'env::var("HEDC_TEST_SEED")' --include=*.rs crates tests | wc -l)"
hle_rows="$(grep -rn 'fn hle_row' --include=*.rs crates tests | wc -l)"
[[ "$seed_readers" -le 1 && "$hle_rows" -le 1 ]] || {
  echo "FAIL: $seed_readers readers of HEDC_TEST_SEED and $hle_rows \`fn hle_row\` definitions (at most one each: use hedc_dm::testkit)" >&2
  exit 1; }

# Smoke-run every bench harness binary on a tiny configuration so the
# harnesses cannot silently rot. HEDC_BENCH_SMOKE shrinks sweeps inside the
# binaries; HEDC_NET_SECS bounds the real-socket windows; reports go to a
# throwaway dir so committed results/ JSONs are never clobbered by a smoke
# pass.
bench_smoke() {
  echo "==> bench smoke (tiny configs)"
  local out
  out="$(mktemp -d)"
  run_bin() {
    echo "    -> $*"
    HEDC_BENCH_SMOKE=1 HEDC_NET_SECS=1 HEDC_RESULTS_DIR="$out" \
      cargo run --release -q -p hedc-bench --bin "$1" -- "${@:2}" >/dev/null
  }
  run_bin batch_bench --net
  run_bin fig4_browse_clients --batch --attribution
  run_bin fig5_browse_nodes --shards
  run_bin table1_processing
  run_bin table23_characteristics
  run_bin store_bench
  run_bin pl_bench
  # Every binary must have written its report.
  for report in BENCH_batch_bench BENCH_fig4_browse_clients BENCH_fig5_shards BENCH_store BENCH_pl; do
    [[ -s "$out/$report.json" ]] || {
      echo "FAIL: bench smoke produced no $report.json" >&2; exit 1; }
  done
  # The smoke reports must satisfy the documented row schema. The pl and
  # fig5_shards reports are gated even in smoke: the >=5x
  # redundancy-elimination ratio must hold on a measured run, tiny config
  # or not, and the shard sweep must still show a real (>=1.2x smoke-bar)
  # speedup; the committed full-size fig5_shards report carries the 1.6x
  # claim.
  cargo run --release -q -p hedc-bench --bin bench_schema -- "$out" \
    fig4_browse_clients fig5_shards batch_bench store pl
  rm -rf "$out"
  # The *committed* Figure-4 report must also hold: its net-tier rows carry
  # the scaling claim (check_fig4: throughput flat-or-rising 16 -> 512
  # clients, bounded p99 and shed rate), so a regression committed alongside
  # stale results cannot slip past the smoke gate.
  cargo run --release -q -p hedc-bench --bin bench_schema -- results \
    fig4_browse_clients
}

# Observability smoke: the tail-latency diagnosis loop must close end to
# end — a forced-slow trace pins in the flight recorder, /hedc/trace/<id>
# serves its critical-path waterfall, and stats.json exposes the exemplar,
# saturation, and flight-recorder fields.
obs_smoke() {
  echo "==> obs smoke (flight recorder + trace page + stats fields)"
  cargo run --release -q -p hedc-bench --bin hedc_doctor -- --obs-smoke
}

# PL redundancy smoke: the §3.5 redundant-work claim end to end — the
# zipf duplicate-heavy pl_bench (coalesce on vs off, gated by check_pl's
# >=5x ratio) plus the seeded single-flight, fairness, and recalibration-
# staleness integration suites.
pl_smoke() {
  echo "==> pl smoke (single-flight coalescing + versioned reuse + fairness)"
  local out
  out="$(mktemp -d)"
  HEDC_BENCH_SMOKE=1 HEDC_RESULTS_DIR="$out" \
    cargo run --release -q -p hedc-bench --bin pl_bench >/dev/null
  cargo run --release -q -p hedc-bench --bin bench_schema -- "$out" pl
  rm -rf "$out"
  cargo test --release -q -p hedc-pl --test coalesce --test fairness \
    --test staleness --test obs_metrics
}

# Sharding smoke: the partitioned-DM correctness tier end to end — the
# seeded scatter-gather oracle, the shard-failover fault suite, the
# rebalance crash matrix, the epoch-churn protocol suite, and the
# fig5_shards scale-out sweep (gated by check_fig5's noise-tolerant
# >=1.2x smoke bar; the committed report carries the 1.6x claim) on a
# tiny config.
shard_smoke() {
  echo "==> shard smoke (oracle + failover + rebalance + epoch churn + scale-out)"
  local out
  out="$(mktemp -d)"
  HEDC_BENCH_SMOKE=1 HEDC_RESULTS_DIR="$out" \
    cargo run --release -q -p hedc-bench --bin fig5_browse_nodes -- --shards >/dev/null
  cargo run --release -q -p hedc-bench --bin bench_schema -- "$out" fig5_shards
  rm -rf "$out"
  cargo test --release -q -p hedc-dm --test shard_prop --test shard_fault \
    --test shard_rebalance
  cargo test --release -q -p hedc-net --test shard_epoch
}

# Ingest pipeline smoke: a tiny downlink day through the serial and staged
# executors plus a WAL-backed crash/resume cycle — the whole §5.2 recovery
# path, in seconds. The report goes to a throwaway dir so the committed
# results/BENCH_ingest.json is never clobbered by a smoke pass.
ingest_smoke() {
  echo "==> ingest smoke (downlink day + crash/resume cycle)"
  local out
  out="$(mktemp -d)"
  HEDC_BENCH_SMOKE=1 HEDC_RESULTS_DIR="$out" \
    cargo run --release -q -p hedc-bench --bin ingest_bench >/dev/null
  [[ -s "$out/BENCH_ingest.json" ]] || {
    echo "FAIL: ingest smoke produced no BENCH_ingest.json" >&2; exit 1; }
  rm -rf "$out"
}

# Net-tier smoke: the event-driven round trip end to end — every hedc-net
# suite in release mode (the wake-up budgets in no_timers.rs and the spill
# path in write_timeout.rs are timing-sensitive, so they are gated at the
# optimization level they are quoted for), then the one benchmark workload
# that crosses real sockets, whose answers are checked against the
# unsharded twin. The wire has one format: a mention of serde_json under
# crates/net/src is a second one on its way back in.
net_smoke() {
  echo "==> net smoke (hedc-net suites in release + cluster_scatter answers)"
  if grep -rn 'serde_json' crates/net/src; then
    echo "FAIL: crates/net/src names serde_json (the wire is binary, v3; see DESIGN.md §8)" >&2; exit 1
  fi
  cargo test --release -q -p hedc-net
  local last
  last="$(cargo run --release --offline --quiet --manifest-path e2e_bench/Cargo.toml \
    --bin e2e_bench -- --workload cluster_scatter --smoke --trace 0 | tail -n 1)"
  [[ "$last" == *'"correct":true'* ]] || {
    echo "FAIL: cluster_scatter smoke did not report correct answers: $last" >&2; exit 1; }
}

# API drift against the frozen benchmark: e2e_bench/ is its own workspace
# (offline stand-ins for the third-party crates) and names `hedc_*` items
# directly, so it must keep building and passing against the current crates.
e2e_smoke() {
  echo "==> e2e smoke (e2e_bench builds and passes against the current crates)"
  cargo build --release --offline --manifest-path e2e_bench/Cargo.toml
  (cd e2e_bench && cargo test --release --offline --workspace)
}

if [[ -n "$only" ]]; then
  [[ "$only" == e2e || "$only" == net ]] || cargo build --release -q -p hedc-bench
  "${only}_smoke"
  echo "OK ($only smoke)"
  exit 0
fi

# The seeded suites, one `<package> <target>` line each: every test target
# with a file that calls `Seed::from_env` outside a comment. A `tests/common`
# module counts for each suite of its crate that declares it; a file under
# `src/` is that crate's unit tests.
seeded_targets() {
  grep -rlE '^[^/]*Seed::from_env\(' --include=*.rs crates tests | while read -r file; do
    crate="hedc-$(cut -d/ -f2 <<<"$file")"
    case "$file" in
      tests/*) echo "hedc-core --test=$(basename "$file" .rs)" ;;
      crates/*/src/*) echo "$crate --lib" ;;
      crates/*/tests/common/*)
        grep -l '^mod common;' "$(dirname "$(dirname "$file")")"/*.rs |
          while read -r suite; do echo "$crate --test=$(basename "$suite" .rs)"; done ;;
      crates/*/tests/*) echo "$crate --test=$(basename "$file" .rs)" ;;
    esac
  done | sort -u
}

if [[ -n "$seed" ]]; then
  # Deterministic replay: one seed, every stream drawn from it.
  echo "==> replaying the seeded suites with HEDC_TEST_SEED=$seed"
  export HEDC_TEST_SEED="$seed"
  targets="$(seeded_targets)"
  for package in $(cut -d' ' -f1 <<<"$targets" | sort -u); do
    # shellcheck disable=SC2046  # one word per target flag
    cargo test -q -p "$package" $(awk -v p="$package" '$1 == p { print $2 }' <<<"$targets") \
      -- --nocapture
  done
  echo "OK (seed $seed)"
  exit 0
fi

# Snapshot proptest-regressions before the tests so new counterexample
# files (or new entries in existing ones) fail the gate.
regressions_before="$(find . -path ./target -prune -o -name '*.txt' -path '*proptest-regressions*' -print 2>/dev/null | sort | xargs -r md5sum 2>/dev/null || true)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if [[ "$fast" -eq 0 ]]; then
  echo "==> cargo clippy --workspace -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "==> (skipping clippy: --fast)"
fi

# The tier-1 gate builds release before testing; mirror it so local runs
# catch release-only breakage (e.g. debug_assertions-gated code).
echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

# The space budget of DESIGN.md §13, at the optimization level it is quoted
# for; like the source-tree sizes above, one line per gate run. A failing
# suite or a missing line fails the assignment, hence the gate.
space_line="$(cargo test --release -q -p hedc-metadb --test space_budget -- --nocapture \
  | grep -o 'page file: .*')"
echo "==> space gate: $space_line"

for name in "${smokes[@]}"; do
  "${name}_smoke"
done

# The committed results/ reports must satisfy the schema, and the committed
# tier (fig4, fig5_shards, batch, ingest, store, pl) must be present.
echo "==> bench_schema (committed results/)"
cargo run --release -q -p hedc-bench --bin bench_schema -- results \
  fig4_browse_clients fig5_shards batch_bench ingest store pl

regressions_after="$(find . -path ./target -prune -o -name '*.txt' -path '*proptest-regressions*' -print 2>/dev/null | sort | xargs -r md5sum 2>/dev/null || true)"
if [[ "$regressions_before" != "$regressions_after" ]]; then
  echo "FAIL: the test run recorded new proptest regressions:" >&2
  diff <(printf '%s\n' "$regressions_before") <(printf '%s\n' "$regressions_after") >&2 || true
  echo "fix the property violation and commit the regression file with it" >&2
  exit 1
fi

echo "OK"
