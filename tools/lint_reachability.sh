#!/bin/sh
# Link-time reachability lint (run by CI and tools/lint_all.sh).
#
# src/ holds only code that a shipped binary runs; test doubles and
# reference oracles live in tests/. This lint checks that as a link-time
# fact:
#
#   1. Build libexplframe_core.a at -O0, so inlining cannot hide a caller,
#      with -ffunction-sections -fdata-sections.
#   2. Link every shipped binary with -Wl,--gc-sections: explsim, explsimd,
#      the examples, the bench_* PERF benches and perfbench. The linker
#      keeps exactly the functions some entry point reaches.
#   3. Diff the strong (nm 'T') explframe:: functions of the library
#      against the union of the functions the binaries keep.
#
# Blind spot: only strong (nm 'T') symbols are diffed, so functions defined
# inline in a header (accessors, defaulted special members and
# comparisons) are invisible: they are weak where an object uses them and
# absent where none does, so a dead one never shows up here. A
# scratch build with -fkeep-inline-functions makes them visible, but its
# output is dominated by implicit special members and accessors tests
# read, so it is a one-off audit, not part of this gate.
#
# Every unreached function is printed. The lint fails unless each one
# starts with a prefix in the allowlist below. It also fails when an
# allowlist entry has no reason or matches nothing, and when an object
# file of the library has no reached function at all (a whole unit that
# belongs in tests/ or nowhere).
#
# Usage:
#   tools/lint_reachability.sh [build-dir]              lint the tree
#   tools/lint_reachability.sh --self-test [build-dir]  plant an unreached
#       function (tools/fixtures/reachability_bad.cpp) in a copy of the
#       library and REQUIRE the lint to report it
#
# The build dir defaults to build-reach/ and is reused incrementally.
set -u

cd "$(dirname "$0")/.." || exit 2

self_test=0
if [ "${1:-}" = "--self-test" ]; then
  self_test=1
  shift
fi
dir="${1:-build-reach}"

# Demangled-name prefix, then the reason it may stay unreached. A prefix
# ending in "(" names one function; without it, every member of a class.
allowlist() {
  cat <<'EOF'
explframe::dram::DramDevice::inject_flip(            plants a flip in private device state for tests
explframe::dram::operator==(explframe::dram::TrrSampler  snapshot round-trip check over private state
explframe::mm::PageAllocator::verify(                 invariant checker over private allocator state
explframe::io::crash_point_names                      kept beside the crash points the torture suites enumerate
explframe::dram::WeakCellModel::WeakCellModel(        explicit-population constructor (ROADMAP item 4 deletes it)
explframe::dram::WeakCellModel::cell_at(              arena introspection (ROADMAP item 4 deletes it)
explframe::dram::WeakCellModel::cells_in_row(         arena introspection (ROADMAP item 4 deletes it)
explframe::dram::WeakCellModel::vulnerable_rows(      arena introspection (ROADMAP item 4 deletes it)
explframe::dram::WeakCellSpan::                       arena introspection (ROADMAP item 4 deletes it)
explframe::RowIndex::key_at(                          arena introspection (ROADMAP item 4 deletes it)
explframe::mm::PageAllocator::global_free_pages(      accessor the allocator and snapshot tests assert on
explframe::mm::Zone::pcp(                             accessor the zone tests assert on
explframe::mm::Zone::pcp_pages(                       accessor the allocator and system tests assert on
explframe::fault::AesDfa::pairs_for_column(           accessor the DFA tests assert on
explframe::fault::AesPfa::candidates(                 full candidate sets the PFA tests check the tallies against
explframe::fault::PresentPfa::candidates(             full candidate sets the PFA tests check the tallies against
EOF
}

# ---- build ------------------------------------------------------------------
# perfbench's project pulls in the root project, so one configure gives
# every root. It forces a Release build type; -O0 replaces the Release
# flags.
cmake -S perfbench -B "$dir" \
      -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
      -DCMAKE_CXX_FLAGS_RELEASE="-O0" \
      -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null || exit 2

roots="perfbench explsim explsimd"
for f in examples/*.cpp; do
  roots="$roots example_$(basename "$f" .cpp)"
done
for f in bench/bench_*.cpp; do
  roots="$roots $(basename "$f" .cpp)"
done
# shellcheck disable=SC2086 # one target per word
cmake --build "$dir" -j "$(nproc 2>/dev/null || echo 2)" --target $roots \
      >"$dir/reach_build.log" 2>&1 || {
  cat "$dir/reach_build.log" >&2
  exit 2
}

lib="$dir/explframe/libexplframe_core.a"
bins=""
for r in $roots; do
  # perfbench sits at the top of the build dir, the root project's
  # binaries under explframe/.
  if [ -x "$dir/$r" ]; then
    bins="$bins $dir/$r"
  else
    bins="$bins $dir/explframe/$r"
  fi
done

# ---- analysis ---------------------------------------------------------------
# check <archive>: print the findings; exit status 1 if there are any.
check() {
  # "object<TAB>function" for every strong explframe:: function.
  nm -A --defined-only "$1" |
    awk '$(NF-1) == "T" { n = split($1, p, ":"); print p[n-1] "\t" $NF }' |
    c++filt | awk -F'\t' '$2 ~ /^explframe::/' | sort -u >"$dir/reach_lib.txt"
  # shellcheck disable=SC2086 # one binary per word
  for b in $bins; do nm --defined-only "$b"; done |
    awk '$(NF-1) ~ /^[TtWw]$/ { print $NF }' | c++filt |
    sort -u >"$dir/reach_kept.txt"
  allowlist >"$dir/reach_allow.txt"

  awk -F'\t' '
    FILENAME ~ /(^|\/)reach_allow\.txt$/ {
      prefix = $0; sub(/[[:space:]].*$/, "", prefix)
      reason = $0; sub(/^[^[:space:]]+[[:space:]]*/, "", reason)
      if (reason == "") {
        printf "allowlist entry has no reason: %s\n", prefix; bad = 1
      }
      allow[++na] = prefix; next
    }
    FILENAME ~ /(^|\/)reach_kept\.txt$/ { kept[$0] = 1; next }
    {
      obj = $1; fn = $2; objs[obj] = 1
      if (fn in kept) { reached[obj] = 1; next }
      ok = 0
      for (i = 1; i <= na; i++)
        if (index(fn, allow[i]) == 1) { ok = 1; used[i] = 1; break }
      if (!ok) { printf "unreached: %s  [%s]\n", fn, obj; bad = 1 }
    }
    END {
      for (i = 1; i <= na; i++)
        if (!(i in used)) {
          printf "allowlist entry matches nothing: %s\n", allow[i]; bad = 1
        }
      for (o in objs)
        if (!(o in reached)) {
          printf "object reached by no binary: %s\n", o; bad = 1
        }
      exit bad
    }
  ' "$dir/reach_allow.txt" "$dir/reach_kept.txt" "$dir/reach_lib.txt"
}

if [ "$self_test" -eq 1 ]; then
  fixture=tools/fixtures/reachability_bad.cpp
  c++ -std=c++20 -O0 -ffunction-sections -c "$fixture" \
      -o "$dir/reachability_bad.o" || exit 2
  cp "$lib" "$dir/reach_selftest.a"
  ar rs "$dir/reach_selftest.a" "$dir/reachability_bad.o" >/dev/null || exit 2
  out=$(check "$dir/reach_selftest.a")
  st=$?
  status=0
  [ "$st" -ne 0 ] || {
    echo "self-test: lint passed a library with a planted function" >&2
    status=1; }
  printf '%s\n' "$out" |
    grep -q '^unreached: explframe::lint_fixture::planted_unreached(' || {
    echo "self-test: planted function was not reported" >&2; status=1; }
  printf '%s\n' "$out" |
    grep -q '^object reached by no binary: reachability_bad.o$' || {
    echo "self-test: planted object was not reported" >&2; status=1; }
  if [ "$status" -eq 0 ]; then
    echo "reachability lint self-test: OK (planted function caught)"
  fi
  exit $status
fi

if check "$lib"; then
  echo "reachability lint: OK ($(wc -l <"$dir/reach_lib.txt") functions," \
       "$(allowlist | wc -l) allowlist entries)"
  exit 0
fi
echo "reachability lint failed: move each function above into tests/," \
     "delete it, or allowlist it with a reason" >&2
exit 1
