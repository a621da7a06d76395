#!/bin/sh
# Tier-1 gate: full build, full test suite, and a traced smoke run.
# Run from the repo root; exits non-zero on any failure.
set -eu

# section NAME: report the finished section's wall seconds, then start NAME;
# "section OK" closes the last one and prints the total.
ci_start=$(date +%s)
sec_start=$ci_start
sec_name=""
section() {
  now=$(date +%s)
  if [ -n "$sec_name" ]; then
    echo "-- $sec_name: $((now - sec_start))s"
  fi
  sec_name="$1"
  sec_start=$now
  if [ "$1" = OK ]; then
    echo "== OK == (total $((now - ci_start))s)"
  else
    echo "== $1 =="
  fi
}

# csv_blocks FILE: every figure block in FILE (a "figure,..." header line
# up to the next blank line) has as many cells in each of its CSV rows as
# in its header; '#' lines are commentary and skipped.
csv_blocks() {
  python3 - "$1" <<'EOF'
import sys
header = None
blocks = 0
for n, line in enumerate(open(sys.argv[1]), 1):
    line = line.rstrip("\n")
    if line.startswith("#"):
        continue
    if not line:
        header = None
        continue
    cells = line.split(",")
    if cells[0] == "figure":
        header = cells
        blocks += 1
    elif header is None or len(cells) != len(header):
        sys.exit("%s:%d: %d cells, header has %s: %s"
                 % (sys.argv[1], n, len(cells), len(header) if header else "none", line))
assert blocks > 0, "no figure header in %s" % sys.argv[1]
EOF
}

section "dune build"
dune build

section "dune runtest"
dune runtest

section "option validation"
# Out-of-range numeric options are rejected before any output: cmdliner's
# usage-error exit (124) and nothing on stdout.
bad_out="${TMPDIR:-/tmp}/natto_ci_bad_opt.out"
sim_exe="$PWD/_build/default/bin/natto_sim.exe"
# A figure list with an unknown name is rejected the same way, before any
# figure runs or BENCH_results.json is opened.
for opt in "-r 0" "--rate=nan" "--rate=-5" "-p 0" "--partitions=-2" "--zipf=-1" \
  "--duration=-1" "--drain=-3" "--high-fraction 2" "--high-fraction=-1" "--loss 1.5" \
  "--loss=-0.2" "--variance=-0.5" "--figure=nosuch" "--figure=fig13,nosuch"; do
  status=0
  # shellcheck disable=SC2086  # $opt is split into flag and value on purpose
  "$sim_exe" -s 2pl --seeds 1 $opt >"$bad_out" 2>/dev/null \
    || status=$?
  if [ "$status" -ne 124 ] || [ -s "$bad_out" ]; then
    echo "natto_sim $opt: expected exit 124 and no output, got exit $status"
    exit 1
  fi
done
# BENCH_results.json is opened before the first figure runs: where it
# cannot be written (here it is a directory), exit 1 with no output.
bad_dir="$(mktemp -d)"
mkdir "$bad_dir/BENCH_results.json"
status=0
(cd "$bad_dir" && "$sim_exe" --figure table1) >"$bad_out" 2>/dev/null || status=$?
if [ "$status" -ne 1 ] || [ -s "$bad_out" ]; then
  echo "--figure with an unwritable BENCH_results.json: expected exit 1 and no output, got exit $status"
  exit 1
fi
rm -rf "$bad_out" "$bad_dir"

section "trace smoke run"
trace_out="${TMPDIR:-/tmp}/natto_ci_trace.json"
dune exec bin/natto_sim.exe -- -s natto-ts -d 2 --seeds 1 -r 50 \
  --trace "$trace_out" >/dev/null
grep -q '"traceEvents"' "$trace_out"
rm -f "$trace_out"

section "fault-injection smoke run"
# Crash partition 0's leader at t=2s, restart it at t=6s; the run must
# complete with no hung transactions and nonzero commits after the heal.
faults_out="${TMPDIR:-/tmp}/natto_ci_faults.csv"
dune exec bin/natto_sim.exe -- -s natto-ts -d 8 --seeds 1 -r 50 \
  --faults 'crash-leader:0@2s,restart@6s' >"$faults_out"
grep -q '# failover: .* commits_after_last_event=[1-9][0-9]* unfinished=0' "$faults_out"
rm -f "$faults_out"

section "history checker smoke"
# One high-contention checked run per protocol family; --check exits
# non-zero and prints the dependency-cycle counterexample on any
# strict-serializability violation. Timed against the same run unchecked:
# recording plus checking must stay under 2x wall clock (1s slack for
# date(1) granularity).
t0=$(date +%s)
dune exec bin/natto_sim.exe -- -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf \
  -d 4 --seeds 1 -r 80 -z 0.95 >/dev/null
t1=$(date +%s)
dune exec bin/natto_sim.exe -- -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf \
  -d 4 --seeds 1 -r 80 -z 0.95 --check >/dev/null
t2=$(date +%s)
base=$((t1 - t0)); checked=$((t2 - t1))
if [ "$checked" -gt $((2 * base + 1)) ]; then
  echo "checker overhead too high: ${checked}s checked vs ${base}s unchecked"
  exit 1
fi

section "checked fault-schedule smoke"
# Every family must also stay strictly serializable through a leader crash
# plus DC cut (in-doubt transactions resolved per the recorder's rules).
dune exec bin/natto_sim.exe -- -s 2pl,tapir,carousel-basic,carousel-fast,natto-recsf \
  -d 8 --seeds 1 -r 50 -z 0.95 \
  --faults 'crash-leader:0@2s,cut:0-1@3s,heal@5s,restart@6s' --check >/dev/null

section "quecc deterministic-family gates"
# The queue-oriented family resolves contention by planning: fault-free
# checked runs must pass the checker with zero client-visible aborts (the
# driver hard-fails on any) and surface in-epoch re-executions through the
# speculation counter instead; output stays byte-identical at any --jobs.
q_j1="${TMPDIR:-/tmp}/natto_ci_quecc_j1.csv"
q_j4="${TMPDIR:-/tmp}/natto_ci_quecc_j4.csv"
dune exec bin/natto_sim.exe -- -s quecc,quecc-prio -d 4 --drain 10 --seeds 1,2 \
  -r 80 -z 0.95 --check --jobs 1 >"$q_j1"
dune exec bin/natto_sim.exe -- -s quecc,quecc-prio -d 4 --drain 10 --seeds 1,2 \
  -r 80 -z 0.95 --check --jobs 4 >"$q_j4"
cmp "$q_j1" "$q_j4"
grep -q '# check: QueCC seed 1 ok' "$q_j1"
grep -q '# check: QueCC-Prio seed 1 ok' "$q_j1"
grep -q '# wasted: QueCC client_aborts=0 speculation_aborts=' "$q_j1"
grep -q '# wasted: QueCC-Prio client_aborts=0 speculation_aborts=' "$q_j1"
# ... and must stay strictly serializable through the leader-crash + DC-cut
# schedule (client aborts are allowed there: failover timeouts retry).
dune exec bin/natto_sim.exe -- -s quecc,quecc-prio -d 8 --seeds 1 -r 50 -z 0.95 \
  --faults 'crash-leader:0@2s,cut:0-1@3s,heal@5s,restart@6s' --check >/dev/null
rm -f "$q_j1" "$q_j4"

section "metrics smoke + determinism gate"
# --metrics must (a) leave the CSV byte-for-byte identical to an
# uninstrumented run ('#'-prefixed lines are commentary, not CSV), and
# (b) write JSON that parses, carries sampled windows, and whose
# attribution segments sum exactly to each end-to-end latency.
metrics_out="${TMPDIR:-/tmp}/natto_ci_metrics.json"
csv_off="${TMPDIR:-/tmp}/natto_ci_metrics_off.csv"
csv_on="${TMPDIR:-/tmp}/natto_ci_metrics_on.csv"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1 -r 80 -z 0.95 \
  | grep -v '^#' >"$csv_off"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1 -r 80 -z 0.95 \
  --metrics "$metrics_out" | grep -v '^#' >"$csv_on"
cmp "$csv_off" "$csv_on"
python3 - "$metrics_out" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema_version"] == 3, "unexpected --metrics schema version"
assert len(d["runs"]) == 2, "expected one run per system"
for r in d["runs"]:
    # Wasted-work view: the reused/discarded split must partition the
    # backoff total exactly, and with --partial-abort off (this smoke)
    # nothing can have been reused.
    w = r["wasted"]
    assert w["reused_us"] + w["discarded_us"] == w["backoff_us"], \
        "wasted split does not partition backoff for %s" % r["system"]
    assert w["reused_us"] == 0, \
        "reused_us nonzero without --partial-abort for %s" % r["system"]
    assert len(r["windows"]) > 10, "no sampled windows for %s" % r["system"]
    assert r["attribution_check"]["max_sum_mismatch_us"] == 0, \
        "segments do not sum to e2e for %s" % r["system"]
    a = r["attribution"]["all"]
    total = sum(a["mean_us"].values())
    e2e = a["e2e_mean_ms"] * 1000.0
    # Floats are serialized with %.6g, so allow that much relative slop
    # (the per-transaction integer check above is exact).
    assert abs(total - e2e) <= 1e-5 * max(1.0, e2e) + 1.0, \
        "aggregate segment means diverge from e2e for %s" % r["system"]
    assert a["mean_us"]["residual"] <= 0.01 * e2e, \
        "residual above 1%% for %s" % r["system"]
    # Blame profiler: per-txn lock/queue charges must sum exactly to the
    # lock_wait + queue_wait attribution segments, the matrix must carry
    # the run's blamed wait time, and the live blame/inversion counters
    # must have been sampled into the windows.
    b = r["blame"]
    assert b["blame_check"]["max_sum_mismatch_us"] == 0, \
        "blame charges do not sum to wait segments for %s" % r["system"]
    matrix_total = sum(sum(row.values()) for row in b["matrix_us"].values())
    assert matrix_total == b["wait_us"], \
        "blame matrix does not sum to wait_us for %s" % r["system"]
    assert b["inversion_us"] == b["matrix_us"]["high"]["low"], \
        "inversion_us is not the high<-low cell for %s" % r["system"]
    sampled = {k for w in r["windows"] for k in w["samples"]}
    assert "blame.lock_wait_us" in sampled and "inversion.lock_wait_us" in sampled, \
        "blame counters missing from windows for %s" % r["system"]
print("metrics JSON ok: %d runs, blame sums exact" % len(d["runs"]))
EOF
rm -f "$metrics_out" "$csv_off" "$csv_on"
# Output files are opened before any simulation: a bad --metrics path must
# exit 1 at once, before the CSV header or any row is printed.
bad_out="${TMPDIR:-/tmp}/natto_ci_bad_path.out"
status=0
dune exec bin/natto_sim.exe -- -s 2pl -d 2 --seeds 1 -r 50 \
  --metrics /nonexistent/x.json >"$bad_out" 2>/dev/null || status=$?
if [ "$status" -ne 1 ] || [ -s "$bad_out" ]; then
  echo "--metrics to an unwritable path: expected exit 1 and no output, got exit $status"
  exit 1
fi
rm -f "$bad_out"

section "golden matrix"
# Default-off mechanisms must not move a byte. Each block of the matrix is
# one natto_sim configuration and its expected stdout: batching off
# (fault-free and under a leader failover), blame plumbing with neither
# --metrics nor --trace (all thirteen systems), partial aborts off at the
# retry sweep's most contended point, and partial aborts on, checked,
# fault-free and through a leader crash + DC cut ('#' lines compared too).
gold_dir="$(mktemp -d)"
awk -v dir="$gold_dir" '
  /^@@ / { n++; f = sprintf("%s/%03d", dir, n); print substr($0, 4) >(f ".key"); next }
  n > 0 { print >(f ".want") }' test/golden/natto_sim.golden
for key in "$gold_dir"/*.key; do
  block="${key%.key}"
  read -r filter args <"$key"
  # shellcheck disable=SC2086  # the key is an argument list
  dune exec bin/natto_sim.exe -- $args >"$block.got"
  if [ "$filter" = csv ]; then
    grep -v '^#' "$block.want" >"$block.want_csv"
    grep -v '^#' "$block.got" >"$block.got_csv"
    cmp "$block.want_csv" "$block.got_csv"
  else
    cmp "$block.want" "$block.got"
  fi
done
rm -rf "$gold_dir"

section "tailblame figure gate"
# The causal-blame figure must be byte-identical at any --jobs, and its
# Zipf-0.99 column must carry the headline: at least one Natto variant's
# high class sees >=10x less high-blocked-by-low time than the no-priority
# 2PL baseline, and priority-ordered QueCC plans inversion away entirely.
tb_j1="${TMPDIR:-/tmp}/natto_ci_tailblame_j1.csv"
tb_j4="${TMPDIR:-/tmp}/natto_ci_tailblame_j4.csv"
dune exec bin/natto_sim.exe -- --figure tailblame --jobs 1 >"$tb_j1"
dune exec bin/natto_sim.exe -- --figure tailblame --jobs 4 >"$tb_j4"
cmp "$tb_j1" "$tb_j4"
csv_blocks "$tb_j1"
python3 - "$tb_j1" <<'EOF'
import sys
rows = {}
for line in open(sys.argv[1]):
    f = line.strip().split(",")
    if len(f) < 13 or f[0] != "tailblame" or f[1] != "0.99":
        continue
    rows[f[2]] = int(f[12])  # inversion_us at zipf 0.99
base = rows["2PL+2PC"]
assert base > 0, "no inversion measured for the 2PL baseline"
nattos = {s: v for s, v in rows.items() if s.startswith("Natto-")}
best = min(nattos, key=nattos.get)
assert nattos[best] * 10 <= base, \
    "no Natto variant 10x below baseline: base=%dus best=%s=%dus" % (base, best, nattos[best])
assert rows["QueCC-Prio"] == 0, \
    "QueCC-Prio shows inversion: %dus" % rows["QueCC-Prio"]
print("tailblame ok: baseline=%dus, %s=%dus (%.1fx), QueCC-Prio=0"
      % (base, best, nattos[best], base / max(1, nattos[best])))
EOF
rm -f "$tb_j1" "$tb_j4"

section "parallel harness determinism gate"
# The Domain pool must not change a single output byte: one full figure at
# --jobs 1 and --jobs 4 must produce byte-identical CSV streams and
# byte-identical BENCH_results.json figure data (only the meta line — wall
# time, jobs, speedup — may differ).
par_dir="$(mktemp -d)"
mkdir -p "$par_dir/j1" "$par_dir/j4"
(cd "$par_dir/j1" && "$sim_exe" --figure fig13 --jobs 1 >out.csv)
(cd "$par_dir/j4" && "$sim_exe" --figure fig13 --jobs 4 >out.csv)
cmp "$par_dir/j1/out.csv" "$par_dir/j4/out.csv"
csv_blocks "$par_dir/j1/out.csv"
tail -n +2 "$par_dir/j1/BENCH_results.json" >"$par_dir/j1.json"
tail -n +2 "$par_dir/j4/BENCH_results.json" >"$par_dir/j4.json"
cmp "$par_dir/j1.json" "$par_dir/j4.json"
# The CLI's (system x seed) grid too, with the checker's per-seed verdict
# lines and the trace-summary counters in the byte-compare.
cli_j1="${TMPDIR:-/tmp}/natto_ci_jobs1.csv"
cli_j4="${TMPDIR:-/tmp}/natto_ci_jobs4.csv"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 \
  --check --trace-summary --jobs 1 >"$cli_j1"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 \
  --check --trace-summary --jobs 4 >"$cli_j4"
cmp "$cli_j1" "$cli_j4"
rm -rf "$par_dir" "$cli_j1" "$cli_j4"

section "batching gates"
# Batching is strictly opt-in (the golden matrix pins the off path).
# Batched runs must stay strictly serializable and, like everything else,
# byte-identical at any --jobs count.
bat_j1="${TMPDIR:-/tmp}/natto_ci_batch_j1.csv"
bat_j4="${TMPDIR:-/tmp}/natto_ci_batch_j4.csv"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 \
  --batching --check --jobs 1 >"$bat_j1"
dune exec bin/natto_sim.exe -- -s 2pl,natto-recsf -d 4 --seeds 1,2 -r 80 -z 0.95 \
  --batching --check --jobs 4 >"$bat_j4"
cmp "$bat_j1" "$bat_j4"
grep -q '# check: .* ok' "$bat_j1"
rm -f "$bat_j1" "$bat_j4"

section "partial-abort gates"
# Both settings are pinned byte for byte by the golden matrix, which runs
# the checked pa-on configurations fault-free and through the leader-crash
# + DC-cut schedule (a checker violation fails that section). Here, on the
# committed fault-free block: resumed retries stay strictly serializable
# (the claimed serve reconstructs exactly what a full serve returns) and
# actually resume — every optimistic family shows nonzero partial_restarts
# at Zipf 0.99.
pa_on="${TMPDIR:-/tmp}/natto_ci_pa_on.csv"
pa_key="@@ all -s 2pl,tapir,carousel-basic,carousel-fast,natto-ts,natto-recsf -d 4 --seeds 1"
pa_key="$pa_key -r 80 -z 0.99 --partial-abort --check"
awk -v key="$pa_key" '/^@@ / { on = ($0 == key); next } on' test/golden/natto_sim.golden >"$pa_on"
grep -q '# check: Natto-RECSF seed 1 ok' "$pa_on"
for sys in 2PL+2PC TAPIR 'Carousel Basic' 'Carousel Fast' Natto-TS Natto-RECSF; do
  grep -q "# wasted: $sys .* partial_restarts=[1-9]" "$pa_on"
done
rm -f "$pa_on"

section "retrysweep figure gate"
# The partial-abort figure must be byte-identical at any --jobs, and its
# metered Zipf-0.99 pass must show the point of the mechanism: at least
# three families — Natto-RECSF among them — discard >=30% less
# aborted-attempt time with resume-from-prefix on.
rs_j1="${TMPDIR:-/tmp}/natto_ci_retrysweep_j1.csv"
rs_j4="${TMPDIR:-/tmp}/natto_ci_retrysweep_j4.csv"
dune exec bin/natto_sim.exe -- --figure retrysweep --jobs 1 >"$rs_j1"
dune exec bin/natto_sim.exe -- --figure retrysweep --jobs 4 >"$rs_j4"
cmp "$rs_j1" "$rs_j4"
csv_blocks "$rs_j1"
python3 - "$rs_j1" <<'EOF'
import sys
cut = {}
for line in open(sys.argv[1]):
    if not line.startswith("# retrysweep wasted: "):
        continue
    body = line[len("# retrysweep wasted: "):]
    system, rest = body.split(" off: ", 1)
    cut[system] = float(rest.rsplit("discarded_reduction_pct=", 1)[1])
assert cut, "no wasted-reduction rows in the retrysweep output"
good = {s: v for s, v in cut.items() if v >= 30.0}
assert "Natto-RECSF" in good, \
    "Natto-RECSF below 30%% discarded reduction: %r" % cut
assert len(good) >= 3, \
    "fewer than 3 families at >=30%% discarded reduction: %r" % cut
print("retrysweep ok: %d/%d families >=30%% (Natto-RECSF %.1f%%)"
      % (len(good), len(cut), cut["Natto-RECSF"]))
EOF
rm -f "$rs_j1" "$rs_j4"

section "simulator throughput bench"
# Events/sec series (vs cluster size, vs --jobs) recorded into the repo-root
# BENCH_results.json. Wall-clock fields are machine-dependent and ungated;
# the events column is deterministic, so the gate asserts (a) the series
# exist and (b) the jobs rows processed identical event counts — the pool
# may only change wall time, never the simulation.
st_out="${TMPDIR:-/tmp}/natto_ci_simthroughput.csv"
"$sim_exe" --figure simthroughput >"$st_out"
csv_blocks "$st_out"
rm -f "$st_out"
python3 - BENCH_results.json <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
series = [r for r in d["figures"]["simthroughput"] if r["system"] == "Natto-RECSF"]
parts = [r for r in series if r["x_label"] == "partitions"]
jobs = [r for r in series if r["x_label"] == "jobs"]
assert len(parts) >= 3, "missing cluster-size series"
assert len(jobs) >= 3, "missing jobs series"
assert all(r["events"] > 0 and r["events_per_sec"] > 0 for r in series)
assert len({r["events"] for r in jobs}) == 1, \
    "event count varies with --jobs: %r" % [(r["x"], r["events"]) for r in jobs]
print("simthroughput ok: %d points, %.0f events/s at 5 partitions"
      % (len(series), parts[0]["events_per_sec"]))
EOF

section "full-population scale smoke"
# SmallBank at its full 1M-user population with 10,000 open-loop clients
# (2000 per DC), under the strict-serializability checker. Exercises the
# int-keyed connection tables and flat stores at four orders of magnitude
# more nodes than the default grid; must finish inside the CI budget.
scale_out="${TMPDIR:-/tmp}/natto_ci_scale.csv"
dune exec bin/natto_sim.exe -- -s natto-recsf -w smallbank -d 2 --drain 5 \
  --seeds 1 -r 500 --clients-per-dc 2000 --check --jobs 1 >"$scale_out"
grep -q '# check: Natto-RECSF seed 1 ok' "$scale_out"
grep -q '^Natto-RECSF,smallbank,' "$scale_out"
rm -f "$scale_out"

section OK
