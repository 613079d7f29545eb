(* Content-addressed function-artifact store: one bounded memo from the
   full provenance of a lowered function to its relocatable object.  The
   population/bench grids sweep many configs over the same 19 workloads,
   so the working set must not grow with the number of experiment cells. *)

let capacity = 8192

let objects : (string, Objfile.func_obj) Memo.t =
  Memo.create ~capacity ~metric:"obj.store" ()

let key ~ir_digest ~pipeline =
  Printf.sprintf "v%d|%s|%s" Objfile.format_version ir_digest pipeline
