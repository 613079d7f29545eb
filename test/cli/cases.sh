#!/bin/sh
# minicc on bad input: every case must fail with a usage error (exit 124)
# for a malformed option value, exit 2 for a bad --config spec, or a
# one-line "minicc: <message>" (exit 1) for every other bad input --
# never an uncaught exception (exit 125).  Prints each case's command,
# exit code, stdout and stderr; test/dune diffs the output against
# cli/expected.out.
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

# Overwrite one payload byte of file $1, writing the result to $2.
corrupt () {
  head -c 20 "$1" >"$2"
  printf 'X' >>"$2"
  tail -c +22 "$1" >>"$2"
}

# Fixtures: a 1-ary program that divides by its argument, its image and a
# sampled recording of it, each also with one payload byte overwritten,
# and three sources that do not compile; two malformed training
# profiles are written before their cases.
cp "$src" div.mc
"$minicc" compile div.mc -o div.bin >/dev/null
"$minicc" profile record div.bin --args 1 -o good.psdprof >/dev/null
corrupt good.psdprof corrupt.psdprof
corrupt div.bin corrupt.bin
printf 'int main(int a) {\n  return a +;\n}\n' >syntax.mc
printf 'int main(int a) {\n  return b;\n}\n' >undeclared.mc
printf 'int f(int a) {\n  return a;\n}\n' >nomain.mc

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
case_ compile syntax.mc -o x.bin
case_ compile undeclared.mc -o x.bin
case_ compile nomain.mc -o x.bin
case_ diversify syntax.mc -o x.bin
case_ run syntax.mc --config p0-30 --args 1
case_ gadgets corrupt.bin
case_ survivor corrupt.bin div.bin
case_ attack corrupt.bin
case_ disas corrupt.bin
case_ workload nosuch
case_ fuzz --count=-1
case_ serve --batch=0
case_ serve --queue-cap=0
case_ serve --queue-cap=-1
case_ fuzz --versions=0
case_ run div.bin --args 1 --top=0
case_ run div.bin --args 1 --trace /nonexistent/t.json
