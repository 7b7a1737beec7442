#!/bin/sh
# Print the sorted flag names of a cmdliner --help=plain page read on
# stdin: one name per line, e.g. "-O" and "--opt" for "-O N, --opt=N".
grep -E '^       -' \
  | sed -E 's/^ +//; s/ \((absent|default)=[^)]*\)//' \
  | tr ',' '\n' \
  | sed -E 's/^ +//; s/[=[ ].*//' \
  | LC_ALL=C sort
