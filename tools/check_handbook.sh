#!/bin/sh
# Handbook-coverage lint (run by CI next to lint_headers.sh).
#
# docs/HANDBOOK.md is the task-oriented front door to the experiment
# catalogue; a scenario, sweep or experiment registered in code but missing
# from the handbook's tables is invisible to a reader. This script greps
# the registration sites for every registered name
# and fails unless each name appears (backquoted) in docs/HANDBOOK.md.
#
# Registration sites are the single source of truth:
#   src/scenario/registry.cpp  (Scenario entries, `s.name = "<name>";`)
#   src/sweep/registry.cpp     (SweepSpec literals, `name = <name>`)
#   src/exp/experiment.cpp     (Experiment entries, `{.name = "<name>",`)
#
# The per-trial CSV/checkpoint columns come from their one declaration,
# attack::kTrialColumns in src/attack/campaign_runner.hpp
# (`TrialColumn<...>{"<name>", ...}`), and must each appear backquoted in
# the handbook's section 6, which interprets the reports.
#
# The time-travel debugger (`explsim debug`) is covered the same way:
# every REPL command must be documented (backquoted) in the handbook.
set -u

cd "$(dirname "$0")/.." || exit 2

scenarios=$(sed -n 's/^[[:space:]]*s\.name = "\([A-Za-z0-9_.-]*\)";$/\1/p' \
    src/scenario/registry.cpp)
sweeps=$(sed -n 's/^name = \([A-Za-z0-9_.-]*\)$/\1/p' src/sweep/registry.cpp)
experiments=$(sed -n 's/^[[:space:]]*{\.name = "\([A-Za-z0-9_.-]*\)",$/\1/p' \
    src/exp/experiment.cpp)

columns=$(sed -n 's/^[[:space:]]*TrialColumn<[^>]*>{"\([a-z_]*\)",.*$/\1/p' \
    src/attack/campaign_runner.hpp)

if [ -z "$scenarios" ] || [ -z "$sweeps" ] || [ -z "$experiments" ] ||
   [ -z "$columns" ]; then
  echo "check_handbook: failed to extract registered names (did the" >&2
  echo "registration syntax change? update this script's patterns)" >&2
  exit 2
fi
# Every column names its member as `&TrialRow::<member>`; a column whose
# line the pattern above missed must not drop out of the check silently.
if [ "$(echo "$columns" | wc -l)" -ne \
     "$(grep -c '&TrialRow::' src/attack/campaign_runner.hpp)" ]; then
  echo "check_handbook: extracted $(echo "$columns" | wc -l) trial" \
       "column(s) but src/attack/campaign_runner.hpp declares" \
       "$(grep -c '&TrialRow::' src/attack/campaign_runner.hpp)" >&2
  exit 2
fi

status=0
for name in $scenarios $sweeps $experiments; do
  if ! grep -q "\`$name\`" docs/HANDBOOK.md; then
    echo "docs/HANDBOOK.md: error: registered entry '$name' is missing" \
         "from the handbook tables" >&2
    status=1
  fi
done

# Trial-column coverage: each published column has a glossary line in
# section 6 ("Interpreting the generated reports").
reports_section=$(sed -n '/^## 6\./,/^## 7\./p' docs/HANDBOOK.md)
for column in $columns; do
  if ! printf '%s\n' "$reports_section" | grep -q "\`$column\`"; then
    echo "docs/HANDBOOK.md: error: trial column '$column' is missing from" \
         "section 6 (Interpreting the generated reports)" >&2
    status=1
  fi
done

# Debugger coverage: `explsim debug` and each REPL command must appear
# backquoted in the handbook's time-travel chapter.
debug_cmds="debug step run-until rewind bisect-flip status"
for cmd in $debug_cmds; do
  if ! grep -q "\`$cmd" docs/HANDBOOK.md; then
    echo "docs/HANDBOOK.md: error: debugger command '$cmd' is not" \
         "documented in the time-travel chapter" >&2
    status=1
  fi
done

# Sharded-run and daemon coverage: the shard/merge CLI surface and every
# `explsimd` subcommand must appear backquoted in the handbook's sharded
# runs chapter (a distribution feature nobody can find is not a feature).
shard_cmds="--shard merge --merge-from explsimd serve submit report"
for cmd in $shard_cmds; do
  if ! grep -q -- "\`$cmd" docs/HANDBOOK.md; then
    echo "docs/HANDBOOK.md: error: shard/daemon command '$cmd' is not" \
         "documented in the sharded-runs chapter" >&2
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "handbook lint failed (add the entries above to docs/HANDBOOK.md)" >&2
else
  echo "handbook lint: OK ($(echo "$scenarios" | wc -l) scenarios," \
       "$(echo "$sweeps" | wc -l) sweeps," \
       "$(echo "$experiments" | wc -l) experiments," \
       "$(echo "$columns" | wc -l) trial columns," \
       "$(echo "$debug_cmds" | wc -w) debugger commands," \
       "$(echo "$shard_cmds" | wc -w) shard/daemon commands covered)"
fi
exit $status
