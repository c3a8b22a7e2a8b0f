#!/bin/sh
# Determinism lint, warnings-as-errors (run by CI and tools/lint_all.sh).
#
# Everything this repo publishes — golden reports, sweep grids, checkpoint
# records, snapshot replays — is promised to be bit-identical across runs,
# machines and thread counts. This lint statically forbids the constructs
# that break that promise in src/ and tools/:
#
#   wall-clock      std::chrono::system_clock / high_resolution_clock,
#                   time(), clock(), gettimeofday, clock_gettime,
#                   localtime/gmtime: calendar or host time can never feed
#                   simulation state or emitted bytes. No escapes.
#   steady-clock    std::chrono::steady_clock: legal ONLY for wall-clock
#                   diagnostics that byte-stable emitters exclude (e.g.
#                   template_wall_seconds), and each site must carry an
#                   annotated escape saying so (syntax below).
#   ambient-rng     rand()/srand(), std::random_device, std::mt19937 &
#                   friends outside src/support/rng.*: all randomness must
#                   flow from explicitly seeded support/rng streams.
#   unordered-emit  any unordered container in the byte-stable emitter
#                   translation units (src/*/report.*, src/exp/*,
#                   src/support/table.*)
#                   or in the packed DRAM-state units whose iteration order
#                   feeds emitted bytes (src/support/packed.*,
#                   src/dram/weak_cells.*, src/dram/packed_state.*: the
#                   sorted arena defines vulnerable_rows() and flip-log
#                   emit order): unordered iteration order is not part of
#                   the contract, so these units must use ordered
#                   containers end to end.
#   uninit-seed     a seed member declared without an initializer: every
#                   seed has a defined default, or replay depends on
#                   whatever the stack held.
#
# Escape syntax (same line, or the line immediately above the finding):
#
#   // determinism: allow(<rule>) <reason>
#
# The reason is mandatory; an escape with an empty reason is itself an
# error. Only `steady-clock` escapes are honoured — the other rules have
# no legitimate sites by design (add one here only with a design change).
#
# Usage:
#   tools/lint_determinism.sh               lint src/ and tools/
#   tools/lint_determinism.sh --self-test   run against the committed
#                                           negative fixture and REQUIRE
#                                           every rule to fire (proves the
#                                           lint still detects what it
#                                           claims to detect)
set -u

cd "$(dirname "$0")/.." || exit 2

scan() {
  # scan <file> — prints findings, returns non-zero if any.
  f="$1"
  awk -v file="$f" '
    function is_emitter(path) {
      # The byte-stable emitter units (scenario/sweep report, experiment
      # pages, table), the packed DRAM-state units whose iteration order
      # reaches emitted bytes (sorted weak-cell arena -> vulnerable_rows()
      # and flip-log order), and the self-test fixture standing in for them.
      return (path ~ /^src\/[a-z]+\/report\.(cpp|hpp)$/ ||
              path ~ /^src\/exp\/[a-z_]+\.(cpp|hpp)$/ ||
              path ~ /^src\/support\/table\.(cpp|hpp)$/ ||
              path ~ /^src\/support\/packed\.(cpp|hpp)$/ ||
              path ~ /^src\/dram\/(weak_cells|packed_state)\.(cpp|hpp)$/ ||
              path ~ /^tools\/fixtures\/report\.cpp$/)
    }
    function escape_rule(line) {
      if (match(line, /\/\/ determinism: allow\([a-z-]+\)/)) {
        s = substr(line, RSTART, RLENGTH)
        sub(/^\/\/ determinism: allow\(/, "", s); sub(/\)$/, "", s)
        return s
      }
      return ""
    }
    function escape_reason(line) {
      sub(/^.*\/\/ determinism: allow\([a-z-]+\)[[:space:]]*/, "", line)
      return line
    }
    function flag(rule, what,   er, src) {
      # Honour an escape on this line or the previous line.
      er = escape_rule($0); src = $0
      if (er == "") { er = escape_rule(prev); src = prev }
      if (er == rule && rule == "steady-clock") {
        if (escape_reason(src) == "") {
          printf "%s:%d: error: determinism escape for %s has no reason\n",
                 file, NR, rule
          bad = 1
        }
        return
      }
      if (er != "" && er != rule) {
        printf "%s:%d: error: escape names rule %s but finding is %s\n",
               file, NR, er, rule
        bad = 1
        return
      }
      if (er == rule) {
        printf "%s:%d: error: rule %s does not accept escapes\n",
               file, NR, rule
        bad = 1
        return
      }
      printf "%s:%d: error: [%s] %s\n", file, NR, rule, what
      bad = 1
    }
    # Strip line comments for matching so the lint never fires on prose —
    # but keep the raw line for escape handling.
    {
      code = $0
      sub(/\/\/.*$/, "", code)
    }
    code ~ /system_clock|high_resolution_clock|gettimeofday|clock_gettime|localtime|gmtime/ {
      flag("wall-clock", "host calendar/cpu time is forbidden: " $0)
    }
    code ~ /[^a-zA-Z0-9_](time|clock)[[:space:]]*\(/ {
      flag("wall-clock", "host calendar/cpu time is forbidden: " $0)
    }
    code ~ /steady_clock/ {
      flag("steady-clock",
           "monotonic clock needs an annotated escape (diagnostic-only): " $0)
    }
    code ~ /[^a-zA-Z0-9_](rand|srand)[[:space:]]*\(|random_device|mt19937|default_random_engine|minstd_rand/ {
      if (file !~ /src\/support\/rng\.(cpp|hpp)$/)
        flag("ambient-rng",
             "randomness outside support/rng is forbidden: " $0)
    }
    code ~ /unordered_(map|set|multimap|multiset)/ && is_emitter(file) {
      flag("unordered-emit",
           "unordered container in a byte-stable emitter: " $0)
    }
    # A seed data member with no initializer: "std::uint64_t seed;" or
    # "uint64_t noise_seed_;" — function declarations (have parens) and
    # initialized members are fine.
    code ~ /(uint64_t|uint32_t|size_t)[[:space:]]+[a-zA-Z0-9_]*seed[a-zA-Z0-9_]*_?[[:space:]]*;/ &&
    code !~ /[(=)]/ && file ~ /\.hpp$/ {
      flag("uninit-seed", "seed member declared without an initializer: " $0)
    }
    { prev = $0 }
    END { exit bad }
  ' "$f"
}

if [ "${1:-}" = "--self-test" ]; then
  # The committed negative fixture must trip EVERY rule — if a rewrite of
  # the patterns above stops detecting a class of violation, this mode
  # fails CI even though src/ itself is clean.
  out=$( { scan "tools/fixtures/determinism_bad.cpp"
           scan "tools/fixtures/determinism_bad.hpp"
           scan "tools/fixtures/report.cpp"; } 2>&1 )
  status=0
  for rule in wall-clock steady-clock ambient-rng unordered-emit uninit-seed; do
    if ! printf '%s\n' "$out" | grep -q "\[$rule\]"; then
      echo "self-test: rule $rule did NOT fire on the negative fixture" >&2
      status=1
    fi
  done
  # The fixture also carries a malformed escape (no reason) and a
  # wrong-rule escape; both must be rejected.
  printf '%s\n' "$out" | grep -q "has no reason" || {
    echo "self-test: reason-less escape was not rejected" >&2; status=1; }
  printf '%s\n' "$out" | grep -q "does not accept escapes" || {
    echo "self-test: non-escapable rule accepted an escape" >&2; status=1; }
  if [ "$status" -eq 0 ]; then
    echo "determinism lint self-test: OK (all rules fire on the fixture)"
  fi
  exit $status
fi

status=0
for f in $(find src tools -name '*.cpp' -o -name '*.hpp' | grep -v '^tools/fixtures/' | sort); do
  scan "$f" || status=1
done

if [ "$status" -ne 0 ]; then
  echo "determinism lint failed (see errors above)" >&2
else
  echo "determinism lint: OK"
fi
exit $status
