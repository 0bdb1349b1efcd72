#!/usr/bin/env bash
# Flat gprof profile of one perfbench workload, libc time included.
#
# Builds cbperf from perfbench/CMakeLists.txt with -pg and -static into
# .prof_build/ (nothing under perfbench/ changes), runs the workload at
# seed 1 with tracing off, and prints gprof's flat profile. Static linking
# matters: a dynamically linked -pg binary samples only its own text, so
# the time spent in malloc/free/memmove (shared libc) is silently missing
# from the percentages. With -static those functions are part of the
# binary and show up in the histogram (without call counts, as libc is not
# compiled with -pg).
#
# Usage: tools/profile.sh WORKLOAD [SECONDS]
#   WORKLOAD  attach_storm | broker_ingest | fluid_population | drive_packet
#   SECONDS   host seconds of workload iterations (default 10)
# The full flat profile stays in .prof_build/run-WORKLOAD/flat.txt.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: tools/profile.sh WORKLOAD [SECONDS]" >&2
  exit 2
fi
WORKLOAD="$1"
SECONDS_ARG="${2:-10}"
BUILD=.prof_build
JOBS="$(nproc 2>/dev/null || echo 2)"

mkdir -p "$BUILD"
if ! { cmake -S perfbench -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg -static" &&
       cmake --build "$BUILD" --target cbperf -j "$JOBS"; } >"$BUILD/build.log" 2>&1; then
  tail -n 30 "$BUILD/build.log" >&2
  echo "profile.sh: build failed (full log: $BUILD/build.log)" >&2
  exit 1
fi

# gmon.out lands in the working directory of the profiled process.
RUN_DIR="$BUILD/run-$WORKLOAD"
mkdir -p "$RUN_DIR"
rm -f "$RUN_DIR/gmon.out"
(cd "$RUN_DIR" && ../cbperf --workload "$WORKLOAD" --seed 1 --seconds "$SECONDS_ARG" \
  --trace 0 >cbperf.out)
echo "# $WORKLOAD: $(tail -n 1 "$RUN_DIR/cbperf.out" | cut -c1-160)..."
gprof -b -p "$BUILD/cbperf" "$RUN_DIR/gmon.out" >"$RUN_DIR/flat.txt"
head -n 40 "$RUN_DIR/flat.txt"
