#!/bin/sh
# Usage: nm_gate.sh OBJECT...
#
# The softcore's data path must compile to straight-line code: every
# Bigarray accessor typed, every comparison on a known type. Fails if an
# object file references the runtime's generic Bigarray accessors
# (caml_ba_get_N / caml_ba_set_N), Stdlib's polymorphic max or min, or a
# polymorphic comparison primitive. See DESIGN.md, "Softcore hot path".
command -v nm >/dev/null 2>&1 || { echo "nm_gate: nm not found" >&2; exit 1; }
status=0
for obj in "$@"; do
  syms=$(nm -u "$obj") || { echo "nm_gate: cannot read $obj" >&2; exit 1; }
  bad=$(printf '%s\n' "$syms" | awk '{ print $NF }' | grep -E \
    '^(caml_ba_(get|set)_[0-9N]+|camlStdlib\.(max|min)_[0-9]+|caml_compare|caml_(greater|less)(equal|than)|caml_(equal|notequal))$')
  if [ -n "$bad" ]; then
    echo "nm_gate: $(basename "$obj") calls the generic runtime:" $bad >&2
    status=1
  fi
done
exit $status
