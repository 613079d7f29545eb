type outcome = { baseline_gadgets : int; surviving : int }

let normalize insns = Nops.strip insns

(* Decode a straight-line free-branch-terminated sequence at a fixed
   offset of the diversified section, mirroring the finder's validity
   rule.  The diversified sequence may be longer than the original's
   (inserted NOPs), so search within the scanner depth. *)
let sequence_at ~(params : Finder.params) d offset =
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

(* The original section's gadgets, scanned once per (section, params):
   a census compares one original against every version. *)
let baselines : (Digest.t * Finder.params, Finder.t list) Memo.t =
  Memo.create ~capacity:32 ()

let baseline_scan params original =
  Memo.find_or_add baselines (Digest.string original, params) (fun () ->
      Finder.scan ~params original)

let survivors params gadgets diversified =
  let d = Finder.decoder diversified in
  List.filter
    (fun (g : Finder.t) ->
      match sequence_at ~params d g.offset with
      | None -> false
      | Some div_insns ->
          (* Normalizing both sides may only increase similarity — the
             deliberate overestimate. *)
          let a = normalize g.insns and b = normalize div_insns in
          a <> [] && List.equal Insn.equal a b)
    gadgets

let surviving_gadgets ?(params = Finder.default_params) ~original ~diversified
    () =
  survivors params (baseline_scan params original) diversified

let compare_sections ?(params = Finder.default_params) ~original ~diversified
    () =
  let baseline = baseline_scan params original in
  {
    baseline_gadgets = List.length baseline;
    surviving = List.length (survivors params baseline diversified);
  }

let surviving_offsets ?params ~original ~diversified () =
  List.map
    (fun (g : Finder.t) -> g.offset)
    (surviving_gadgets ?params ~original ~diversified ())
