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
# The ocean's row sweep (`ocn::sweep`, DESIGN.md §17) is checked the same way
# for width: its AVX2 and AVX-512 compilations, the ocean crate's instances
# of `pp::isa::with_avx2` / `with_avx512`, must do double-precision
# arithmetic (`vaddpd`, `vsubpd`, `vmulpd`, `vdivpd`) on `ymm` / `zmm`
# registers and make their selects as blends of that width (`vblendvpd` /
# `vblendmpd`; only the sweep selects, the pressure beside it does not), or
# a refactor has silently de-vectorised the sweep. (Its AVX2 body keeps a
# few values on the stack; only the conv tile is held to none.)
#
# Builds into its own target directory (the emit flags would otherwise
# rebuild the crates in the main one). x86-64 only.
#
#   scripts/check_kernel_asm.sh
set -euo pipefail
cd "$(dirname "$0")/.."
dir=${CARGO_TARGET_DIR:-target}/kernel-asm
emit() {
    CARGO_TARGET_DIR=$dir cargo rustc -q --release -p "$1" --lib -- \
        --emit asm -C llvm-args=-x86-asm-syntax=intel
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

asm=$(emit ap3esm-ocn)
for check in "with_avx2 ymm" "with_avx512 zmm"; do
    read -r fn reg <<<"$check"
    body=$(body "$fn" "$asm")
    if [[ -z $body ]]; then
        echo "sweep: no $fn in $asm" >&2
        status=1
        continue
    fi
    wide=$(grep -cE "v(add|sub|mul|div)pd\s+${reg}[0-9]" <<<"$body" || true)
    blends=$(grep -cE "vblend[a-z]*pd\s+${reg}[0-9]" <<<"$body" || true)
    if ((wide == 0 || blends == 0)); then
        echo "sweep: $fn does $wide arithmetic and $blends select instruction(s) on $reg registers: not vectorised" >&2
        status=1
    else
        echo "sweep: $fn does $wide arithmetic and $blends select instruction(s) on $reg registers ($(wc -l <<<"$body") lines)"
    fi
done
exit $status
