#!/usr/bin/env bash
# The repo's CI gate, runnable locally and from .github/workflows/ci.yml.
# Builds are fully offline: vendor/ + .cargo/config.toml replace the
# registry, so no network access is needed beyond the Rust toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
# A doc link to a renamed or deleted item fails here instead of going stale.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test"
# The default test run includes the engine contract suite
# (tests/backend_conformance.rs).
cargo test --workspace -q

echo "==> flip-planning differential at scale 0.3 (release)"
# tests/flip_plan.rs checks plan_flip against the earlier planner at small
# scales in the stage above; its ignored variant repeats the check over all
# 22 corpus bugs at scale 0.3, where perfbench measures.
cargo test --release --test flip_plan -- --ignored

echo "==> perfbench self-tests"
# The wall-clock benchmark (perfbench/, its own workspace) checks every
# diagnosis of its tiny-size runs against the report digests stored in
# perfbench/digests.json. A library change that alters a benchmarked
# diagnosis, or breaks the benchmark's use of the public API, fails here
# instead of at the next bench run.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> release build"
# The smokes below drive the release binaries. The gates on memoization,
# resume, pruning, causality, the server and the generated corpus are
# integration tests, run by the cargo test stage above.
cargo build --release -p aitia-bench

echo "==> usage-error smoke"
# Unknown flags (here --backend, --snapshot-cache, the two fault-injection
# flags, campaignd's --sim-deadline-s and report's --journal, which older
# builds accepted), deleted subcommands (bench-memo) and out-of-range
# --scale values must be rejected at startup with the usage exit status 2:
# never run, succeed, panic or abort.
expect_status() {
    local want=$1 rc=0
    shift
    "$@" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq "$want" ] \
        || { echo "FAIL: '$*' exited $rc, want $want" >&2; exit 1; }
}
expect_status 2 ./target/release/diagnose CVE-2017-15649 --backend ksim
expect_status 2 ./target/release/report table2 --backend ksim
expect_status 2 ./target/release/report table2 --snapshot-cache 8
expect_status 2 ./target/release/campaignd status --dir target/ci-usage-campaignd \
    --backend ksim
expect_status 2 ./target/release/report bench-memo
expect_status 2 ./target/release/campaignd run --dir target/ci-usage-campaignd \
    --sim-deadline-s 5
expect_status 2 ./target/release/report table2 --journal target/ci-usage-report.wal
for gone in rate seed; do
    expect_status 2 ./target/release/report table2 --fault-"$gone" 5
    expect_status 2 ./target/release/campaignd run --dir target/ci-usage-campaignd \
        --fault-"$gone" 5
done
expect_status 2 ./target/release/diagnose CVE-2017-15649 --scale 1e12
for bad_scale in inf nan 0 1e300 101; do
    expect_status 2 ./target/release/report table2 --scale "$bad_scale"
done

echo "==> deadline smoke"
# A wall deadline too far away for the clock to hold never fires: the run
# finishes exactly like one without a deadline instead of panicking.
./target/release/diagnose CVE-2017-15649 --scale 0.05 --report-only \
    > target/ci-deadline-reference.txt 2> /dev/null
./target/release/diagnose CVE-2017-15649 --scale 0.05 --deadline-s 1e20 --report-only \
    > target/ci-deadline-far.txt 2> /dev/null \
    || { echo "FAIL: a 1e20 s deadline did not exit 0" >&2; exit 1; }
diff target/ci-deadline-far.txt target/ci-deadline-reference.txt \
    || { echo "FAIL: a 1e20 s deadline changed the diagnosis" >&2; exit 1; }
# A deadline that has passed by the first claim (1 ns) cuts the search
# before any schedule runs: no reproduction, exit 1, and the message says
# the deadline is why.
DEADLINE_STATUS=0
./target/release/diagnose CVE-2017-15649 --scale 0.05 --deadline-s 1e-9 \
    > /dev/null 2> target/ci-deadline-expired.err || DEADLINE_STATUS=$?
[ "$DEADLINE_STATUS" -eq 1 ] \
    || { echo "FAIL: a 1 ns deadline exited $DEADLINE_STATUS, want 1" >&2; exit 1; }
grep -q 'before the deadline expired' target/ci-deadline-expired.err \
    || { echo "FAIL: a 1 ns deadline did not report its expiry" >&2; exit 1; }
# report blames the deadline the same way, not the scale.
DEADLINE_STATUS=0
./target/release/report table2 --scale 0.05 --deadline-s 1e-9 \
    > /dev/null 2> target/ci-report-deadline-expired.err || DEADLINE_STATUS=$?
[ "$DEADLINE_STATUS" -eq 1 ] \
    || { echo "FAIL: report's 1 ns deadline exited $DEADLINE_STATUS, want 1" >&2; exit 1; }
grep -q 'did not reproduce at scale 0.05 before the deadline expired' \
    target/ci-report-deadline-expired.err \
    || { echo "FAIL: report's 1 ns deadline did not report its expiry" >&2; exit 1; }

echo "==> no-reproduction smoke"
# At the largest accepted scale CVE-2019-11486 no longer reproduces:
# report must say so and exit 1, as diagnose does, instead of panicking.
expect_status 1 ./target/release/report table2 --scale 100

echo "==> paper levels smoke"
# report pins the paper's levels (conflict pruning, exhaustive causality)
# for every table and figure, while diagnose and campaignd default to dpor
# and adaptive: report's tables must not move with the library defaults.
# Only the VM-pool stats block at the end may differ between two runs.
./target/release/report table2 --scale 0.05 \
    | sed '/^VM-pool execution stats/,$d' > target/ci-report-default.txt
./target/release/report table2 --scale 0.05 --prune-level conflict \
    --causality-level exhaustive \
    | sed '/^VM-pool execution stats/,$d' > target/ci-report-paper.txt
diff target/ci-report-default.txt target/ci-report-paper.txt \
    || { echo "FAIL: report table2 left the paper's levels" >&2; exit 1; }

echo "==> default levels smoke"
# diagnose at its default levels (dpor + adaptive) must print the report
# of a diagnosis at the paper's levels byte for byte: on the Packet socket
# bug, on the ambiguity case of Figure 7 and on Syzkaller #5, whose
# victim spawns the thread it is preempted toward.
for bug in CVE-2017-15649 CVE-2016-10200 "#5"; do
    ./target/release/diagnose "$bug" --report-only \
        > target/ci-levels-default.txt 2> /dev/null
    ./target/release/diagnose "$bug" --report-only --prune-level conflict \
        --causality-level exhaustive > target/ci-levels-paper.txt 2> /dev/null
    diff target/ci-levels-default.txt target/ci-levels-paper.txt \
        || { echo "FAIL: $bug: the default levels changed the diagnosis" >&2; exit 1; }
done

echo "==> prune ablation smoke"
# The same bug diagnosed with pruning fully off and with full DPOR pruning
# must print byte-identical reports: pruning only skips equivalent
# schedules, never changes what is diagnosed. diagnose keeps stats on
# stderr precisely so stdout is comparable here.
ABLATE_BUG=CVE-2017-10661
./target/release/diagnose "$ABLATE_BUG" --scale 0.05 --prune-level off \
    > target/ci-ablate-off.txt 2> target/ci-ablate-off.err
./target/release/diagnose "$ABLATE_BUG" --scale 0.05 --prune-level dpor \
    > target/ci-ablate-dpor.txt 2> target/ci-ablate-dpor.err
diff target/ci-ablate-off.txt target/ci-ablate-dpor.txt \
    || { echo "FAIL: dpor pruning changed the diagnosis" >&2; exit 1; }

echo "==> causality ablation smoke"
# The same bug diagnosed at both causality levels must print byte-identical
# reports: the adaptive level skips statically proved flips and reorders
# submission by information gain, but never changes what is diagnosed. The
# adaptive-level stats (static skips, reordered flips) land on stderr with
# the rest of the counters.
./target/release/diagnose "$ABLATE_BUG" --scale 0.05 --causality-level exhaustive \
    > target/ci-ablate-exhaustive.txt 2> target/ci-ablate-exhaustive.err
./target/release/diagnose "$ABLATE_BUG" --scale 0.05 --causality-level adaptive \
    > target/ci-ablate-adaptive.txt 2> target/ci-ablate-adaptive.err
diff target/ci-ablate-exhaustive.txt target/ci-ablate-adaptive.txt \
    || { echo "FAIL: adaptive causality changed the diagnosis" >&2; exit 1; }
grep -q 'skipped by static proof' target/ci-ablate-adaptive.err \
    || { echo "FAIL: adaptive run did not report causality stats" >&2; exit 1; }

echo "==> kill-and-resume smoke"
# Each step leaves a journal behind, resumes over it, and requires the
# resumed report to diff clean against an uninterrupted, journal-free run
# at the same scale. diagnose keeps stats on stderr precisely so stdout is
# comparable here.
SMOKE_BUG=CVE-2017-15649
SMOKE_JOURNAL=target/ci-resume-smoke.wal
resume_matches_reference() { # <step> <scale>
    ./target/release/diagnose "$SMOKE_BUG" --scale "$2" \
        > target/ci-resume-reference.txt 2> /dev/null
    ./target/release/diagnose "$SMOKE_BUG" --scale "$2" --journal "$SMOKE_JOURNAL" \
        > target/ci-resume-resumed.txt 2> target/ci-resume-resumed.err
    diff target/ci-resume-resumed.txt target/ci-resume-reference.txt \
        || { echo "FAIL: $1: resumed diagnosis diverged from the uninterrupted run" >&2; exit 1; }
    grep -q '^journal: ' target/ci-resume-resumed.err \
        || { echo "FAIL: $1: resumed run did not report journal stats" >&2; exit 1; }
}
# A deterministic cut: journal a whole run on one worker, so the file's
# bytes do not depend on timing, cut the file to half its bytes, which
# lands inside a record, and resume. The torn record is truncated and
# every record before it replays.
rm -f "$SMOKE_JOURNAL"
./target/release/diagnose "$SMOKE_BUG" --scale 0.05 --vms 1 --journal "$SMOKE_JOURNAL" \
    > /dev/null 2> /dev/null
truncate -s $(($(stat -c %s "$SMOKE_JOURNAL") / 2)) "$SMOKE_JOURNAL"
resume_matches_reference "half-cut journal" 0.05
grep -q ' 1 torn-tail truncations' target/ci-resume-resumed.err \
    || { echo "FAIL: the half-cut journal's torn record was not truncated" >&2; exit 1; }
grep -Eq '^journal: [1-9][0-9]* replayed' target/ci-resume-resumed.err \
    || { echo "FAIL: the half-cut journal replayed no record" >&2; exit 1; }
# A journal of the previous format version (JSON records) cold-starts with
# a warning: it never replays and never crashes the run.
printf 'AITIAJNL\001\000\000\000{"fp":0}' > "$SMOKE_JOURNAL"
resume_matches_reference "version 1 journal" 0.05
grep -q 'unrecognized header' target/ci-resume-resumed.err \
    || { echo "FAIL: a version 1 journal did not cold-start with a warning" >&2; exit 1; }
# SIGKILL a journaled run partway through and resume over what survived.
# At scale 1.0 the cold run takes about 0.6 s on 2 hardware threads (at
# the default levels; 0.1 s at scale 0.2), so the kill at 0.1 s lands
# mid-run. The kill is still racy by design: if the run finishes first,
# the resume replays a complete journal and the diff must still be clean.
rm -f "$SMOKE_JOURNAL"
./target/release/diagnose "$SMOKE_BUG" --scale 1.0 --journal "$SMOKE_JOURNAL" \
    > /dev/null 2> /dev/null &
SMOKE_PID=$!
sleep 0.1
kill -9 "$SMOKE_PID" 2> /dev/null || true
SMOKE_STATUS=0
wait "$SMOKE_PID" 2> /dev/null || SMOKE_STATUS=$?
if [ "$SMOKE_STATUS" -eq 137 ]; then
    echo "    the kill landed mid-run"
else
    echo "    the run finished before the kill (status $SMOKE_STATUS)"
fi
resume_matches_reference "SIGKILLed journal" 1.0

echo "==> campaignd smoke"
# Submit a batch of corpus bugs to the daemon's durable queue, start the
# daemon, SIGKILL it partway through, restart it in drain mode, and require
# every result file to diff clean against direct `diagnose --report-only`
# runs. At scale 0.4 the whole drain takes about 1.0 s on 2 hardware
# threads (at the default levels; 0.1 s at scale 0.05), so the kill at
# 0.2 s lands mid-drain. The kill is still racy by design: whether it
# lands mid-campaign, between campaigns, or after the drain, the restart
# must recover the queue and land every job on the same bytes.
CDIR=target/ci-campaignd
CD_SCALE=0.4
rm -rf "$CDIR"
SMOKE_BUGS="CVE-2017-15649 CVE-2017-10661 CVE-2018-12232 CVE-2019-6974 \
    CVE-2016-8655 CVE-2017-2636 CVE-2017-7533 CVE-2019-11486"
for bug in $SMOKE_BUGS; do
    ./target/release/campaignd submit --dir "$CDIR" "cve:$bug:$CD_SCALE" > /dev/null
done
./target/release/campaignd run --dir "$CDIR" --drain --poll-ms 5 \
    2> target/ci-campaignd-first.err &
CD_PID=$!
sleep 0.2
kill -9 "$CD_PID" 2> /dev/null || true
CD_STATUS=0
wait "$CD_PID" 2> /dev/null || CD_STATUS=$?
if [ "$CD_STATUS" -eq 137 ]; then
    echo "    the kill landed mid-drain"
else
    echo "    the drain finished before the kill (status $CD_STATUS)"
fi
./target/release/campaignd run --dir "$CDIR" --drain --poll-ms 5 \
    2> target/ci-campaignd-restart.err
./target/release/campaignd status --dir "$CDIR" > target/ci-campaignd-status.json
id=0
for bug in $SMOKE_BUGS; do
    id=$((id + 1))
    ./target/release/diagnose "$bug" --scale "$CD_SCALE" --report-only \
        > target/ci-campaignd-ref.txt 2> /dev/null
    diff "$CDIR/results/job-$id.report.txt" target/ci-campaignd-ref.txt \
        || { echo "FAIL: campaignd job $id ($bug) diverged from direct diagnose" >&2; exit 1; }
done

echo "CI OK"
