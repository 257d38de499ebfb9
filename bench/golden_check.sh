#!/usr/bin/env bash
# Run one bench and compare its stdout with a committed golden file.
#
#   bench/golden_check.sh <golden-file> <bench-binary> [bench args...]
#
# Lines starting with "[sweep] " (sweep wall-clock timing) or "[bench_json] "
# (record-written notices) are dropped before the comparison; every other
# byte must match. The bench's own exit code still counts: a failing bench
# fails the check before any comparison. HD_UPDATE_GOLDEN=1 rewrites the
# golden file from this run instead of comparing.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <golden-file> <bench-binary> [bench args...]" >&2
  exit 2
fi
GOLDEN="$1"
shift

RAW="$(mktemp)"
ACTUAL="$(mktemp)"
trap 'rm -f "${RAW}" "${ACTUAL}"' EXIT

"$@" > "${RAW}"
grep -v -E '^\[(sweep|bench_json)\] ' "${RAW}" > "${ACTUAL}" || true

if [[ "${HD_UPDATE_GOLDEN:-0}" == "1" ]]; then
  cp "${ACTUAL}" "${GOLDEN}"
  echo "golden written: ${GOLDEN}"
  exit 0
fi
if ! diff -u "${GOLDEN}" "${ACTUAL}"; then
  echo "bench output differs from ${GOLDEN}" >&2
  exit 1
fi
