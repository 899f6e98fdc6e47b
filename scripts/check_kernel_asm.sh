#!/usr/bin/env bash
# The conv kernel's accumulators stay in registers (DESIGN.md §21): emit the
# ai crate's assembly and fail when `conv_avx2` has a `ymmword ptr [rsp`
# operand or `conv_avx512` a `zmmword ptr [rsp` one — a vector load or store
# on the stack frame, i.e. part of the tile lives in memory and is stored on
# every tap. A tile that spilled ran the 16-column forward 3× slower in the
# serve worker than on the main thread of the same binary. Each compilation
# must also use its own vector width (a `ymm` / `zmm` register), or it is
# the narrower kernel under another name.
#
# The ocean's four kernels (`ocn::sweep::RowSweep`, `ocn::mixing::RowMixing`,
# `ocn::barotropic::{Continuity, Momentum}`, DESIGN.md §17) are checked the
# same way for width: every instance in the ocean crate of
# `pp::isa::with_avx2` / `with_avx512` — one per kernel, each named in the
# output (the crate is emitted with v0 symbol mangling, which spells a
# generic's type arguments into its label) — must make its selects on
# `ymm` / `zmm` registers and do its arithmetic at that width: the sweep and
# the barotropic kernels any of `vaddpd`, `vsubpd`, `vmulpd`, `vdivpd`,
# mixing `vdivpd` (its Thomas pivots and Richardson numbers); or a refactor
# has silently de-vectorised a kernel. A select is a blend (`vblendvpd` /
# `vblendmpd`); for the barotropic kernels also an AVX-512 write-masked
# operation (`{k1}`), the form LLVM gives their selects on `zmm`. An
# instance also fails when its scalar divides (`vdivsd`) outnumber its wide
# ones: a body that passes the counts with one wide divide can still run its
# divides lane by lane (the first mixing tile did 16 scalar to 4 wide). A
# missing instance fails too. (Their AVX2 bodies keep a few values on the
# stack; only the conv tile is held to none.)
#
# Builds into its own target directory (the emit flags would otherwise
# rebuild the crates in the main one). x86-64 only.
#
#   scripts/check_kernel_asm.sh
set -euo pipefail
cd "$(dirname "$0")/.."
dir=${CARGO_TARGET_DIR:-target}/kernel-asm
emit() { # <crate> [rustc flags...]
    CARGO_TARGET_DIR=$dir cargo rustc -q --release -p "$1" --lib -- \
        --emit asm -C llvm-args=-x86-asm-syntax=intel "${@:2}"
    ls -t "$dir"/release/deps/"${1//-/_}"-*.s | head -n 1
}

# The body of function `$1` in assembly file `$2`: from its
# (legacy-mangled) label to its end.
body() {
    awk -v fn="$1" '
        $0 ~ "^_ZN[0-9A-Za-z_]*[0-9]" fn "17h[0-9a-f]+E:$" { on = 1 }
        on { print }
        on && /\.cfi_endproc/ { exit }' "$2"
}

asm=$(emit ap3esm-ai)
status=0
for check in "conv_avx2 ymm" "conv_avx512 zmm"; do
    read -r fn reg <<<"$check"
    body=$(body "$fn" "$asm")
    if [[ -z $body ]]; then
        echo "kernel: no $fn in $asm" >&2
        status=1
        continue
    fi
    spills=$(grep -c "${reg}word ptr \[rsp" <<<"$body" || true)
    if ((spills > 0)); then
        echo "kernel: $fn has $spills '${reg}word ptr [rsp' operand(s): the tile spilled" >&2
        grep -n -m 5 "${reg}word ptr \[rsp" <<<"$body" >&2
        status=1
    elif ! grep -q "\b${reg}[0-9]" <<<"$body"; then
        echo "kernel: $fn uses no $reg register" >&2
        status=1
    else
        echo "kernel: $fn keeps its tile in $reg registers ($(wc -l <<<"$body") lines)"
    fi
done

asm=$(emit ap3esm-ocn -C symbol-mangling-version=v0)
# One line per instance: `<entry point> <module>::<kernel> <lines>
# <arithmetic> <divides> <blends> <write-masked> <scalar divides>`, counted
# on the entry point's register.
instances=$(awk '
    function kernel(label,   p, rest, n, mod) {
        p = index(label, "10ap3esm_ocn")
        if (!p) return "?"
        rest = substr(label, p + 12)
        match(rest, /^[0-9]+/); n = substr(rest, 1, RLENGTH)
        mod = substr(rest, RLENGTH + 1, n); rest = substr(rest, RLENGTH + 1 + n)
        match(rest, /^[0-9]+/); n = substr(rest, 1, RLENGTH)
        return mod "::" substr(rest, RLENGTH + 1, n)
    }
    /^_R[0-9A-Za-z_]*(9with_avx2|11with_avx512)[0-9A-Za-z_]*:$/ {
        fn = ($0 ~ /9with_avx2/) ? "with_avx2" : "with_avx512"
        reg = (fn == "with_avx2") ? "ymm" : "zmm"
        name = kernel($0); lines = wide = divs = blends = masked = sdivs = 0; on = 1
    }
    on {
        lines++
        if ($0 ~ "v(add|sub|mul|div)pd[ \t]+" reg "[0-9]") wide++
        if ($0 ~ "vdivpd[ \t]+" reg "[0-9]") divs++
        if ($0 ~ "vblend[a-z]*pd[ \t]+" reg "[0-9]") blends++
        if ($0 ~ "v[a-z]+[ \t]+" reg "[0-9]+ \\{k[1-7]\\}") masked++
        if ($0 ~ "vdivsd[ \t]") sdivs++
    }
    on && /\.cfi_endproc/ { print fn, name, lines, wide, divs, blends, masked, sdivs; on = 0 }' "$asm")
for check in "with_avx2 sweep::RowSweep" "with_avx512 sweep::RowSweep" \
    "with_avx2 mixing::RowMixing" "with_avx512 mixing::RowMixing" \
    "with_avx2 barotropic::Continuity" "with_avx512 barotropic::Continuity" \
    "with_avx2 barotropic::Momentum" "with_avx512 barotropic::Momentum"; do
    if ! grep -q "^$check " <<<"$instances"; then
        echo "ocean: no $check instance in $asm" >&2
        status=1
    fi
done
while read -r fn name lines wide divs blends masked sdivs; do
    reg=$([[ $fn == with_avx2 ]] && echo ymm || echo zmm)
    case $name in
    *::RowMixing) need=$divs what=vdivpd selects=$blends ;;
    barotropic::*) need=$wide what=arithmetic selects=$((blends + masked)) ;;
    *) need=$wide what=arithmetic selects=$blends ;;
    esac
    summary="$fn<$name> does $wide arithmetic ($divs vdivpd, $sdivs scalar vdivsd),"
    summary+=" $blends blend(s) and $masked write-masked operation(s) on $reg registers"
    summary+=" ($lines lines)"
    if ((need == 0 || selects == 0)); then
        echo "ocean: $summary: no $what or no select, not vectorised" >&2
        status=1
    elif ((sdivs > divs)); then
        echo "ocean: $summary: more scalar divides than wide ones" >&2
        status=1
    else
        echo "ocean: $summary"
    fi
done < <(grep . <<<"$instances")
exit $status
