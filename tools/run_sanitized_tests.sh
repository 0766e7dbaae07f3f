#!/usr/bin/env bash
# Configure, build and run the full test suite under sanitizers.
#
#   tools/run_sanitized_tests.sh [sanitizers] [build-dir] [ctest-regex]
#
#   sanitizers  comma-separated -fsanitize= list (default: address,undefined)
#               "thread" selects ThreadSanitizer; it is incompatible with
#               address/leak sanitizers, so run it as a separate mode.
#   build-dir   out-of-source build directory (default: build-san, or
#               build-san-thread for the thread mode — the object files are
#               ABI-incompatible across modes, so each gets its own tree)
#   ctest-regex optional ctest -R filter, e.g. the concurrency-focused subset
#               'ParallelFor|CachingPredictor|Sweep' for the CI thread mode
#
# The three supported modes (see README "Sanitized test runs"):
#   tools/run_sanitized_tests.sh                      # address,undefined
#   tools/run_sanitized_tests.sh thread               # data races / TSan
#   tools/run_sanitized_tests.sh undefined            # UBSan alone (fastest)
#
# The suite must pass clean: any sanitizer report is turned into a hard
# failure via halt_on_error / exitcode options.
set -euo pipefail

SANITIZERS="${1:-address,undefined}"
if [[ "${SANITIZERS}" == *thread* && "${SANITIZERS}" == *address* ]]; then
  echo "error: thread and address sanitizers cannot be combined" >&2
  exit 2
fi
DEFAULT_BUILD_DIR="build-san"
if [[ "${SANITIZERS}" == *thread* ]]; then
  DEFAULT_BUILD_DIR="build-san-thread"
fi
BUILD_DIR="${2:-${DEFAULT_BUILD_DIR}}"
TEST_REGEX="${3:-}"
SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1:abort_on_error=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
# second_deadlock_stack costs little and makes lock-order reports readable.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

echo ">>> configuring ${BUILD_DIR} with HD_SANITIZE=${SANITIZERS}"
cmake -B "${BUILD_DIR}" -S "${SOURCE_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHD_SANITIZE="${SANITIZERS}"

echo ">>> building"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

echo ">>> running ctest under ${SANITIZERS}"
CTEST_ARGS=(--test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)")
if [[ -n "${TEST_REGEX}" ]]; then
  CTEST_ARGS+=(-R "${TEST_REGEX}")
fi
ctest "${CTEST_ARGS[@]}"

echo ">>> sanitized test run passed (${SANITIZERS})"
