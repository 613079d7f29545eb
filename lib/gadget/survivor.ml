(* Decode a straight-line free-branch-terminated sequence at a fixed
   offset of the diversified section, mirroring the finder's validity
   rule.  The diversified sequence may be longer than the original's
   (inserted NOPs), so search within the scanner depth. *)
let sequence_at d offset =
  let params = Finder.default_params in
  let rec walk pos n acc =
    if n > params.max_insns + params.max_back_bytes then None
    else
      match Finder.decode d pos with
      | Some (i, len) ->
          if Insn.is_free_branch i then Some (List.rev (i :: acc))
          else if Finder.breaks_gadget i then None
          else if pos + len - offset > params.max_back_bytes + 1 then None
          else walk (pos + len) (n + 1) (i :: acc)
      | None -> None
  in
  walk offset 1 []

(* The original section's gadgets, scanned once per section: a census
   compares one original against every version. *)
let baselines : (Digest.t, Finder.t list) Memo.t = Memo.create ~capacity:32 ()

let baseline_scan original =
  Memo.find_or_add baselines (Digest.string original) (fun () ->
      Finder.scan original)

let surviving_gadgets ~original ~diversified () =
  let d = Finder.decoder diversified in
  List.filter
    (fun (g : Finder.t) ->
      match sequence_at d g.offset with
      | None -> false
      | Some div_insns ->
          (* Normalizing both sides may only increase similarity — the
             deliberate overestimate. *)
          let a = Nops.strip g.insns and b = Nops.strip div_insns in
          a <> [] && List.equal Insn.equal a b)
    (baseline_scan original)
