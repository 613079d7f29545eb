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
# recording of it with one payload byte overwritten; two malformed
# training profiles are written before their cases.
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
printf 'main 0 3\nmain 0 5\n' >dup.prof
printf 'main 0 -1\n' >neg.prof
case_ diversify div.mc --profile dup.prof -o div.div.bin
case_ run div.mc --config p0-30 --profile neg.prof --args 1
case_ run div.bin --args 1 --engine=interp
case_ workload 429.mcf --engine=interp
case_ run div.bin --args 1 --sim-profile-sample=7
case_ profile record div.bin --args 1 --period 10 -o short.psdprof
case_ compile div.mc -o /nonexistent/d/x.bin
case_ profile train div.mc --args 1 -o /nonexistent/p.prof
case_ profile div.mc --args 1
