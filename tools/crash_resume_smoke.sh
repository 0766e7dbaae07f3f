#!/usr/bin/env bash
# End-to-end coordinator crash-resume smoke (DESIGN.md §12, CI "crash-resume"
# job): SIGKILL hyperdrive_cli mid-run via --kill-after-checkpoints, resume
# the dead run out-of-process with --resume-from, and byte-compare the
# resumed run's multi-study CSV and event timeline against an uninterrupted
# reference at the same checkpoint cadence. A last phase crashes the
# coordinator in-simulation (a fault-plan coordinator-crash) with no
# checkpoint flag: the run must replay from t=0 and match the crash-free run.
#
#   tools/crash_resume_smoke.sh [cli-binary] [work-dir]
#
#   cli-binary  path to hyperdrive_cli (default: build/cli/hyperdrive_cli)
#   work-dir    scratch directory (default: a fresh mktemp -d, removed on exit)
#
# Exit 0 only if: the killed run actually died by SIGKILL (exit 137), left
# valid checkpoint frames behind, the resume verified its replay, both
# artifacts are byte-identical to the reference, and the uncheckpointed
# crash run's artifacts are byte-identical to the crash-free run's.
set -euo pipefail

CLI="${1:-build/cli/hyperdrive_cli}"
if [[ ! -x "${CLI}" ]]; then
  echo "error: ${CLI} not found or not executable (build first)" >&2
  exit 2
fi
CLI="$(cd "$(dirname "${CLI}")" && pwd)/$(basename "${CLI}")"

CLEANUP=0
if [[ $# -ge 2 ]]; then
  WORK="$2"
  mkdir -p "${WORK}"
else
  WORK="$(mktemp -d)"
  CLEANUP=1
fi
trap '[[ ${CLEANUP} -eq 1 ]] && rm -rf "${WORK}"' EXIT
cd "${WORK}"

cat > alpha.study <<'EOF'
study alpha
workload cifar10
policy pop
configs 12
seed 7
EOF
cat > beta.study <<'EOF'
study beta
workload ptb_lstm
policy bandit
configs 10
weight 2
seed 9
EOF

COMMON=(--study alpha.study --study beta.study --machines 6 --seed 5
        --checkpoint-every 300)

echo ">>> reference run (uninterrupted, same checkpoint cadence)"
"${CLI}" "${COMMON[@]}" --checkpoint-out ref-ckpt \
  --csv ref.csv --trace-out ref-trace.csv > ref.log

echo ">>> crash run (SIGKILL after the 3rd durable checkpoint)"
set +e
"${CLI}" "${COMMON[@]}" --checkpoint-out ckpt \
  --kill-after-checkpoints 3 > crash.log 2>&1
CRASH_EXIT=$?
set -e
if [[ ${CRASH_EXIT} -ne 137 ]]; then
  echo "error: expected the crash run to die by SIGKILL (137), got ${CRASH_EXIT}" >&2
  exit 1
fi
FRAMES=$(ls ckpt/ckpt-*.hdck 2>/dev/null | wc -l)
if [[ ${FRAMES} -lt 3 ]]; then
  echo "error: expected >= 3 durable frames after the kill, found ${FRAMES}" >&2
  exit 1
fi
echo "    died by SIGKILL with ${FRAMES} frames on disk"

echo ">>> resume run (fresh process, specs come from the frames)"
"${CLI}" --resume-from ckpt --csv res.csv --trace-out res-trace.csv > res.log
grep -q "verified-replays=1" res.log || {
  echo "error: resume did not report a verified replay:" >&2
  cat res.log >&2
  exit 1
}

echo ">>> comparing artifacts byte-for-byte"
cmp ref.csv res.csv
cmp ref-trace.csv res-trace.csv

echo ">>> in-simulation coordinator crash without checkpoint flags"
echo "coordinator-crash 1800" > coordinator-crash.plan
PLAIN=(--study alpha.study --study beta.study --machines 6 --seed 5)
"${CLI}" "${PLAIN[@]}" --csv plain.csv --trace-out plain-trace.csv > plain.log
"${CLI}" "${PLAIN[@]}" --fault-plan coordinator-crash.plan \
  --csv crashed.csv --trace-out crashed-trace.csv > crashed.log
cmp plain.csv crashed.csv
cmp plain-trace.csv crashed-trace.csv
grep -q "crashes=1 " crashed.log || {
  echo "error: the crash run did not report its coordinator crash:" >&2
  cat crashed.log >&2
  exit 1
}

echo ">>> crash-resume smoke passed (CSV and timeline byte-identical)"
