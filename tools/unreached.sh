#!/usr/bin/env bash
# Lists the project code that neither product binary (fti, fti_fuzz)
# keeps: a separate -O0 build links both with one section per function
# and linker garbage collection, then prints
#   * the fti:: functions neither binary keeps (collected by the linker,
#     or in an object the binary never links), and
#   * the src/ objects neither binary pulls out of its archive at all.
# -O0 keeps every call out of line, so "collected" means "no reference
# reaches it", not "inlined everywhere"; inline and template code
# (COMDAT sections, one copy per object) is left out of the list.
# Examples, benches, tests and perfbench are not product binaries: what
# only they use shows up here, and DESIGN.md names the keepers among it.
#
#   tools/unreached.sh [BUILD_DIR]     (default: build-unreached)
#
# Builds with two jobs.  Needs GNU ld or gold (--print-gc-sections,
# -Map), nm and c++filt.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build-unreached"}

mkdir -p "$build"
cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O0" \
  -DCMAKE_CXX_FLAGS="-ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections -Wl,--print-gc-sections -Wl,-Map,$build/link.map" \
  > "$build/configure.log"

# The fti_fuzz binary's target is fti_fuzz_tool (the library owns the
# plain name).
for binary in fti fti_fuzz; do
  target=$binary
  [ "$binary" = fti_fuzz ] && target=fti_fuzz_tool
  # Relink from scratch so the linker prints its whole list again.
  rm -f "$build/tools/$binary" "$build/link.map"
  cmake --build "$build" --target "$target" -j 2 \
    > "$build/$binary.link.log" 2>&1
  mv "$build/link.map" "$build/$binary.map"
  # Every src/ object the link pulled out of an archive: the map's
  # "Archive member included ..." section names each one at the start
  # of a line, with the reference that pulled it in after it.
  awk '/^Archive member included/ { inside = 1; next }
       /^(Allocating common symbols|Discarded input sections|Memory Configuration)/ { inside = 0 }
       inside' "$build/$binary.map" \
    | grep -o '^[^ ]*libfti_[a-z_]*\.a([a-z_0-9]*\.cpp\.o)' \
    | grep -o 'libfti_[a-z_]*\.a([a-z_0-9]*\.cpp\.o)' \
    | sort -u > "$build/$binary.members" || true
done

# Every src/ object, as the linker names an archive member, with the
# functions it defines (out of line: COMDAT copies are weak, not T/t).
find "$build/src" -name '*.cpp.o' | sort | while read -r object; do
  member="lib$(basename "$(dirname "$object")" .dir).a($(basename "$object"))"
  nm --defined-only -P "$object" | awk -v member="$member" \
    '$2 == "T" || $2 == "t" { print member " " $1 }'
  echo "$member -"
done > "$build/all.symbols"
cut -d' ' -f1 "$build/all.symbols" | sort -u > "$build/all.members"

# What a binary does not keep: the functions the linker collected
# ("removing unused section '.text.<symbol>' in file '<archive>(<obj>)'";
# a COMDAT section carries its group as "[<signature>]" and is skipped)
# plus every function of an object it never links.
for binary in fti fti_fuzz; do
  {
    sed -n "s/.*removing unused section '\.text\.\([^'[]*\)' in file '[^']*libfti_[^']*'.*/\1/p" \
      "$build/$binary.link.log"
    comm -23 "$build/all.members" "$build/$binary.members" \
      | awk 'NR == FNR { skip[$1] = 1; next } skip[$1] && $2 != "-" { print $2 }' \
        - "$build/all.symbols"
  } | sort -u > "$build/$binary.unreached"
done

echo "== fti:: functions neither fti nor fti_fuzz keeps"
comm -12 "$build/fti.unreached" "$build/fti_fuzz.unreached" | c++filt \
  | { grep '^fti::' || true; } | sort -u

echo "== src/ objects neither binary links"
cat "$build/fti.members" "$build/fti_fuzz.members" | sort -u \
  | comm -23 "$build/all.members" -
