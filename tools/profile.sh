#!/bin/sh
# Flat per-function CPU profile of any command, by SIGPROF sampling.
#
#   tools/profile.sh <cmd> [args...]
#   PROFILE_ROWS=60 tools/profile.sh build/perfbench --workload present-pfa \
#       --seed 1 --seconds 10 --trace 0 --scratch /tmp/pb
#
# Builds tools/sigprof.c into a preloadable shim with cc and runs the
# command under LD_PRELOAD with it: one PC sample per millisecond of CPU
# time, in whichever thread is running, in the command and every process
# it forks or execs. Then prints a flat table of the PROFILE_ROWS (default
# 40) functions with the most samples: count, share of all samples, name.
# Names in the executable come from nm over the executable that took the
# sample, so build unstripped (any CMake build type keeps the symbol
# table); samples in its PLT stubs show up as `_init`. Samples in shared
# libraries (libc, libstdc++, libm, ...) are named by the shim at exit
# with dladdr: one row per exported symbol, as "malloc [libc.so.6]" or
# "operator new(unsigned long) [libstdc++.so.6]", and one "[libc.so.6]"
# row per library for PCs in no exported symbol (glibc's IFUNC memcpy and
# memset variants, static functions such as _int_malloc). Compare two
# builds by their tables when a timing A/B differs and the diff does not
# say why (code placement, inlining). Host-time only: nothing it prints
# may feed a golden. Exits with the command's status.
set -u

if [ $# -eq 0 ]; then
  echo "usage: tools/profile.sh <cmd> [args...]" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT

cc -O2 -shared -fPIC -o "$work/sigprof.so" "$here/sigprof.c" \
  -lpthread -ldl || exit 2
EXPLFRAME_PROFILE_OUT="$work/samples" \
  LD_PRELOAD="$work/sigprof.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@"
status=$?

for f in "$work"/samples.*; do
  [ -f "$f" ] || continue
  # Function start addresses (decimal) of the sampling executable, then
  # its per-PC sample counts: each PC goes to the last function starting
  # at or below it.
  nm -n -C -t d --defined-only "$(head -n 1 "$f")" 2>/dev/null |
    awk '$2 ~ /^[tTwW]$/' > "$work/syms"
  tail -n +2 "$f" |
    awk -v syms="$work/syms" '
      BEGIN {
        while ((getline line < syms) > 0) {
          split(line, w, " ")
          addr[n] = w[1] + 0
          name[n++] = substr(line, index(line, " " w[2] " ") + 3)
        }
      }
      $2 ~ /^@/ { print $1 "\t" substr($2, 2) " [" $3 "]"; next }
      $2 ~ /^\[/ { print $1 "\t" $2; next }
      {
        pc = $2 + 0; l = 0; h = n - 1; k = -1
        while (l <= h) {
          m = int((l + h) / 2)
          if (addr[m] <= pc) { k = m; l = m + 1 } else { h = m - 1 }
        }
        print $1 "\t" (k < 0 ? "[unknown]" : name[k])
      }'
done > "$work/raw"
# Shared-library symbols arrive mangled; nm -C already demangled the rest.
if command -v c++filt >/dev/null 2>&1; then
  c++filt < "$work/raw" > "$work/counts"
else
  mv "$work/raw" "$work/counts"
fi
printf '%9s %7s  %s\n' samples share function
awk -F '\t' '
  { count[$2] += $1; total += $1 }
  END {
    if (total == 0) { print "profile: no samples" > "/dev/stderr"; exit }
    for (f in count)
      printf "%9d %6.2f%%  %s\n", count[f], 100 * count[f] / total, f
    printf "%9d %6.2f%%  %s\n", total, 100, "(total)"
  }' "$work/counts" | sort -k1,1nr | head -n "$((${PROFILE_ROWS:-40} + 1))"
exit $status
