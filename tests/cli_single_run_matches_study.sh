#!/usr/bin/env bash
# The CLI's two entry points must run one study the same way: the study file
# through the multi-study runner (--study) and the same study as a single
# cluster run (--substrate cluster ... --run-all). The check byte-compares the
# two event timelines and requires equal total_time_min values.
#
#   tests/cli_single_run_matches_study.sh CLI STUDY_FILE WORK_DIR
#
# STUDY_FILE is tests/data/idle_asha.study: strict ASHA with an unreachable
# target, so the run ends idle with paused jobs. Both runs must stop there,
# not at Tmax.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 CLI STUDY_FILE WORK_DIR" >&2
  exit 2
fi
CLI="$1"
STUDY="$2"
WORK="$3"
mkdir -p "${WORK}"
cd "${WORK}"

"${CLI}" --study "${STUDY}" --machines 4 --seed 9 \
  --trace-out study_timeline.csv --csv study.csv > study.log
"${CLI}" --substrate cluster --workload cifar10 --policy asha --policy-opt strict=true \
  --configs 12 --seed 9 --machines 4 --run-all \
  --trace-out single_timeline.csv --csv single.csv > single.log

# The single run's timeline is cell-prefixed (cell,repeat columns); the
# study manager adds its own node-acquired / node-released capacity lines.
cut -d, -f3- single_timeline.csv > single_timeline.cmp
grep -v -E '^[^,]*,node-(acquired|released),' study_timeline.csv > study_timeline.cmp
if ! cmp -s single_timeline.cmp study_timeline.cmp; then
  echo "FAIL: the single-run and study timelines differ:" >&2
  diff single_timeline.cmp study_timeline.cmp | head -20 >&2
  exit 1
fi

# Print the named column of a CSV's first data row.
csv_field() {
  awk -F, -v name="$2" 'NR == 1 { for (i = 1; i <= NF; ++i) if ($i == name) col = i }
                        NR == 2 && col { print $col }' "$1"
}
single_total="$(csv_field single.csv total_time_min)"
study_total="$(csv_field study.csv total_time_min)"
if [[ -z "${single_total}" || "${single_total}" != "${study_total}" ]]; then
  echo "FAIL: total_time_min differs: single run '${single_total}', study '${study_total}'" >&2
  exit 1
fi
echo "ok: identical timelines ($(wc -l < study_timeline.cmp) lines)," \
     "total_time_min ${study_total} on both"
