#!/bin/sh
# Header-documentation lint, warnings-as-errors (run by CI).
#
# For every public header under src/ — every layer is documented now —
# enforce:
#
#   (a) the file starts with a file-level '//' comment block on line 1;
#   (b) every class / struct / enum *definition* is immediately preceded
#       by a comment line (Doxygen-style '///' or a '//' block) — forward
#       declarations ('class Foo;') are exempt;
#   (c) every public member-function declaration group is preceded by a
#       comment or a '// ----' section banner (checked loosely: a public:
#       section must contain at least one comment line).
#
# And for every source file under src/, tools/ and examples/:
#
#   (d) no #include of a path under tests/ — test oracles such as
#       tests/attack/reference_campaign.hpp and tests/dram/reference_dram.hpp
#       stay test-only (bench/ may include them to time against them).
#
# Exit status is non-zero on any violation, with file:line diagnostics.
set -u

cd "$(dirname "$0")/.." || exit 2

status=0
for f in src/attack/*.hpp src/exp/*.hpp src/io/*.hpp src/scenario/*.hpp \
         src/service/*.hpp src/snapshot/*.hpp src/sweep/*.hpp \
         src/support/*.hpp src/crypto/*.hpp src/dram/*.hpp src/fault/*.hpp \
         src/kernel/*.hpp src/mm/*.hpp src/vm/*.hpp; do
  [ -f "$f" ] || continue
  awk -v file="$f" '
    NR == 1 && $0 !~ /^\/\// {
      printf "%s:1: error: missing file-level comment\n", file; bad = 1
    }
    # A type definition (not a forward declaration, not a data member of
    # type "struct X" etc.): class/struct/enum name ... not ending in ";".
    /^[[:space:]]*(class|struct|enum class|enum)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*([[:space:]]*[:{]|[[:space:]]*$)/ {
      if (prev !~ /^[[:space:]]*\/\// && prev !~ /\*\/[[:space:]]*$/) {
        printf "%s:%d: error: undocumented type: %s\n", file, NR, $0
        bad = 1
      }
    }
    /^[[:space:]]*public:/ { in_public = 1; public_line = NR; saw_doc = 0 }
    /^[[:space:]]*(private|protected):/ { in_public = 0 }
    in_public && /^[[:space:]]*\/\// { saw_doc = 1 }
    /^};[[:space:]]*$/ {
      if (in_public && !saw_doc && NR > public_line + 2) {
        printf "%s:%d: error: public section without any documentation\n",
               file, public_line
        bad = 1
      }
      in_public = 0
    }
    { prev = $0 }
    END { exit bad }
  ' "$f" || status=1
done

# (d) Oracles stay in tests/.
oracle_includes=$(grep -rnE \
    '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"](\.\./)*tests/' \
    --include='*.cpp' --include='*.hpp' --include='*.h' \
    src tools examples)
if [ -n "$oracle_includes" ]; then
  printf '%s\n' "$oracle_includes" |
    sed 's/^\([^:]*:[0-9]*\):[[:space:]]*\(.*\)$/\1: error: test-only include: \2/'
  status=1
fi

if [ "$status" -ne 0 ]; then
  echo "header-doc lint failed (see errors above)" >&2
else
  echo "header-doc lint: OK"
fi
exit $status
