#!/bin/sh
# One local entry point for every static gate CI runs:
#
#   tools/lint_headers.sh         header-doc lint (Doxygen coverage)
#   tools/check_handbook.sh       handbook covers every scenario/sweep
#   tools/lint_determinism.sh     determinism contract (+ its self-test
#                                 against the committed negative fixture)
#   tools/lint_reachability.sh    every src/ function is reached by a
#                                 shipped binary (+ its self-test on a
#                                 planted unreached function); builds
#                                 its own -O0 tree in build-reach/
#   tools/lint_tidy.sh            NOLINT hygiene + clang-tidy when installed
#
# Usage: tools/lint_all.sh [build-dir]   (build-dir is forwarded to the
# clang-tidy gate for compile_commands.json; default: build)
#
# Runs every gate even after one fails, so a single invocation reports the
# full set of problems; exits non-zero if ANY gate failed.
set -u

cd "$(dirname "$0")/.." || exit 2
build_dir="${1:-build}"

status=0
run() {
  echo "==> $*"
  "$@" || status=1
  echo
}

run tools/lint_headers.sh
run tools/check_handbook.sh
run tools/lint_determinism.sh
run tools/lint_determinism.sh --self-test
run tools/lint_reachability.sh
run tools/lint_reachability.sh --self-test
run tools/lint_tidy.sh "$build_dir"

if [ "$status" -ne 0 ]; then
  echo "lint_all: FAILED (one or more gates above)" >&2
else
  echo "lint_all: all gates OK"
fi
exit $status
