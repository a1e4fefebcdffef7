#!/usr/bin/env bash
# Differential baseline sweep: run MAP-IT and the §5.6 heuristics across
# an artifact-rate × seed grid and diff the integer results against the
# committed DIFF_sweep.json. Any disagreement is real engine/baseline
# drift (the pipeline is seeded and thread-invariant), so the script
# exits non-zero on the first drifted cell.
#
#   tools/diff_sweep.sh                 # default grid vs committed baseline
#   tools/diff_sweep.sh --regen         # re-run grid and rewrite baseline
#
# Env vars:
#   MAPIT_BIN    path to the mapit CLI (default: <repo>/build/tools/mapit)
#   SWEEP_RATES  comma-separated artifact-rate multipliers (default 0,0.5,1)
#   SWEEP_SEEDS  comma-separated experiment seeds (default 7,9)
#   SWEEP_STATE  resumable state file; a killed sweep picks up at the
#                first unfinished cell (default:
#                <build>/diff_sweep.<binary hash>.state, keyed by the first
#                12 hex digits of the SHA-256 of MAPIT_BIN, so a rebuilt
#                binary starts a fresh sweep instead of resuming the cells
#                an older one completed)
#   SWEEP_THREADS engine worker threads (default 1; output-invariant)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
MAPIT_BIN="${MAPIT_BIN:-${REPO_ROOT}/build/tools/mapit}"
SWEEP_RATES="${SWEEP_RATES:-0,0.5,1}"
SWEEP_SEEDS="${SWEEP_SEEDS:-7,9}"
SWEEP_THREADS="${SWEEP_THREADS:-1}"
BASELINE="${REPO_ROOT}/DIFF_sweep.json"

if [[ ! -x "${MAPIT_BIN}" ]]; then
  echo "diff_sweep.sh: mapit CLI not found at ${MAPIT_BIN} (build first," >&2
  echo "or point MAPIT_BIN at the binary)" >&2
  exit 2
fi

if [[ -z "${SWEEP_STATE:-}" ]]; then
  bin_hash="$(sha256sum "${MAPIT_BIN}" | cut -c1-12)"
  SWEEP_STATE="$(dirname "${MAPIT_BIN}")/../diff_sweep.${bin_hash}.state"
fi

if [[ "${1:-}" == "--regen" ]]; then
  rm -f "${SWEEP_STATE}"
  "${MAPIT_BIN}" sweep --rates "${SWEEP_RATES}" --seeds "${SWEEP_SEEDS}" \
    --threads "${SWEEP_THREADS}" --state "${SWEEP_STATE}" --out "${BASELINE}"
  echo "diff_sweep.sh: rewrote ${BASELINE}"
  exit 0
fi

if [[ ! -f "${BASELINE}" ]]; then
  echo "diff_sweep.sh: committed baseline ${BASELINE} missing" >&2
  echo "(run tools/diff_sweep.sh --regen to create it)" >&2
  exit 2
fi

"${MAPIT_BIN}" sweep --rates "${SWEEP_RATES}" --seeds "${SWEEP_SEEDS}" \
  --threads "${SWEEP_THREADS}" --state "${SWEEP_STATE}" \
  --baseline "${BASELINE}" > /dev/null
