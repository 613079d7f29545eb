let params = Finder.default_params

(* The end of the free branch that a straight-line walk from [offset]
   of the diversified section reaches, or -1: the finder's validity
   rule, read from the opcode table without decoding.  The diversified
   sequence may be longer than the original's (inserted NOPs), so the
   walk searches within the scanner depth. *)
let branch_end text offset =
  let rec walk pos n =
    if n > params.max_insns + params.max_back_bytes then -1
    else
      let s = Decode.classify text pos in
      let cls = Decode.class_of s and len = Decode.length_of s in
      if cls = Decode.free_branch then pos + len
      else if cls <> Decode.ordinary then -1
      else if pos + len - offset > params.max_back_bytes + 1 then -1
      else walk (pos + len) (n + 1)
  in
  walk offset 1

(* Whether the instructions in [\[pos, stop)], NOP candidates dropped,
   are [expected]. *)
let rec matches text pos stop expected =
  if pos >= stop then expected = []
  else
    match Decode.insn ~pos text with
    | None -> false
    | Some (i, len) -> (
        if Nops.is_candidate i then matches text (pos + len) stop expected
        else
          match expected with
          | e :: rest when Insn.equal e i -> matches text (pos + len) stop rest
          | _ -> false)

(* The original section's gadgets with their normalized sequences,
   scanned once per section: a census compares one original against
   every version.  A gadget made only of NOP candidates normalizes to
   nothing and never counts as a survivor, so it is dropped here. *)
let baselines : (Digest.t, (Finder.t * Insn.t list) list) Memo.t =
  Memo.create ~capacity:32 ()

let baseline_scan original =
  Memo.find_or_add baselines (Digest.string original) (fun () ->
      List.filter_map
        (fun (g : Finder.t) ->
          match Nops.strip g.insns with [] -> None | a -> Some (g, a))
        (Finder.scan original))

let surviving_gadgets ~original ~diversified () =
  List.filter_map
    (fun ((g : Finder.t), normalized) ->
      let stop = branch_end diversified g.offset in
      (* Normalizing both sides may only increase similarity — the
         deliberate overestimate. *)
      if stop >= 0 && matches diversified g.offset stop normalized then Some g
      else None)
    (baseline_scan original)
