#!/bin/sh
# Fails when library or binary source reads an `INCDES_*` environment
# variable outside the allowlist below. Every knob must show its value
# in the end-to-end benchmark, so adding one means editing this list.
#
#   INCDES_SEARCH_THREADS  — parallel-search thread count (the parallel
#                            differential CI step sets it)
#   INCDES_OBS_TEST_*      — fixtures of the `diag` unit tests only
#
# Run from the repository root: sh ci/check-env-knobs.sh
found=$(grep -rnoE '"INCDES_[A-Z0-9_]+' src crates/*/src \
    | grep -vE ':"INCDES_SEARCH_THREADS$' \
    | grep -vE '^crates/obs/src/diag\.rs:[0-9]+:"INCDES_OBS_TEST_[A-Z0-9_]+$')
if [ -n "$found" ]; then
    echo "INCDES_* variables outside the allowlist in ci/check-env-knobs.sh:"
    echo "$found"
    exit 1
fi
echo "env knobs: only allowlisted INCDES_* variables are read"
