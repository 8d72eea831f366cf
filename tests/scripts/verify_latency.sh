#!/bin/sh
# `fti verify --latency` reproduces a suite case compiled with a
# `!latency` line: matmul4.args pipelines its multipliers (mul=2), and
# the verify of the same kernel with the same flags must report the
# suite's cycle count.
#
# Usage: verify_latency.sh <fti-binary> <kernels-dir>
set -eu

FTI="$1"
KERNELS="$2"

suite=$("$FTI" suite "$KERNELS" | awk '$1 == "matmul4" && $2 == "PASS" { print $4 }')
verify=$("$FTI" verify "$KERNELS/matmul4.k" --arg n=4 --latency mul=2 \
  --read-ports 2 --mem a="$KERNELS/matmul4.a.dat" \
  --mem b="$KERNELS/matmul4.b.dat" --check c \
  | awk '$1 == "matmul4" && $2 ~ /^[0-9]+$/ { print $2 }')
echo "suite matmul4: $suite cycles; verify --latency mul=2: $verify cycles"
[ -n "$suite" ] && [ "$suite" = "$verify" ]
