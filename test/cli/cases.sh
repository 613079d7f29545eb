#!/bin/sh
# minicc on bad input: every case must fail with a usage error (exit 124)
# or a one-line "minicc: <message>" (exit 1), never an uncaught
# exception.  Prints each case's command, exit code, stdout and stderr;
# test/dune diffs the output against cli/expected.out.
#
#   sh cli/cases.sh MINICC DIV_ZERO_SOURCE
minicc=$1
src=$2

case_ () {
  echo "== minicc $*"
  "$minicc" "$@" >case.out 2>case.err
  echo "exit $?"
  echo "-- stdout"
  cat case.out
  echo "-- stderr"
  cat case.err
}

# Fixtures: a 1-ary program that divides by its argument, and a sampled
# recording of it with one payload byte overwritten.
cp "$src" div.mc
"$minicc" compile div.mc -o div.bin >/dev/null
"$minicc" profile record div.bin --args 1 -o good.psdprof >/dev/null
head -c 20 good.psdprof >corrupt.psdprof
printf 'X' >>corrupt.psdprof
tail -c +22 good.psdprof >>corrupt.psdprof

case_ run div.bin --args x
case_ run div.bin --args 1,2
case_ run div.bin --args 0
case_ profile train div.mc --args 1,2
case_ profile train div.mc --args 0
case_ profile record div.bin --args 1,2 -o bad.psdprof
case_ profile diff good.psdprof corrupt.psdprof
case_ run div.bin --args 1 --engine=interp
case_ workload 429.mcf --engine=interp
