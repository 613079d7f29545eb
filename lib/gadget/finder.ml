type t = { offset : int; insns : Insn.t list; bytes : string }

let pp ppf g =
  Format.fprintf ppf "@[<h>0x%x: %a@]" g.offset
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ; ")
       Insn.pp)
    g.insns

type params = { max_insns : int; max_back_bytes : int }

let default_params = { max_insns = 8; max_back_bytes = 30 }

let free_branch_sites text =
  let sites = ref [] in
  for pos = String.length text - 1 downto 0 do
    let s = Decode.classify text pos in
    if Decode.class_of s = Decode.free_branch then
      sites := (pos, Decode.length_of s) :: !sites
  done;
  !sites

(* Software interrupts do not break the straight-line property: execution
   resumes at the next instruction, and "int 0x80; ret" is the canonical
   syscall gadget every scanner looks for. *)
let breaks_gadget i =
  Insn.is_control_flow i && (match i with Insn.Int _ -> false | _ -> true)

(* An instruction is at most 11 bytes long, so a sweep that only ever
   looks [len] bytes ahead keeps the last 16 offsets and no more. *)
let window = 16

(* The linear sweep from a start is deterministic: it is a gadget iff the
   first instruction that breaks a gadget is a free branch at most
   [max_back_bytes] past the start, reached within [max_insns]
   instructions (the branch alone always counts).  So one backward pass
   over the classified offsets settles every start: the sweep from
   [pos] is the instruction there followed by the sweep from
   [pos + len].  [term] holds each offset's free branch (-1 for none
   within [max_insns]) and [count] its length in instructions.  Every
   offset on a gadget's sweep is itself a gadget start, so a gadget's
   instruction list is its first instruction consed onto the list of
   the gadget [len] bytes on: each found start is decoded once, and
   the lists share their tails.  [f] sees the starts as the pass finds
   them, last first. *)
let iter ?(params = default_params) text f =
  let n = String.length text in
  let cap = max 1 params.max_insns in
  let term = Array.make window (-1)
  and count = Array.make window 0
  and insns = Array.make window [] in
  for pos = n - 1 downto 0 do
    let s = Decode.classify text pos in
    let cls = Decode.class_of s and slot = pos land (window - 1) in
    let next = (pos + Decode.length_of s) land (window - 1) in
    if cls = Decode.free_branch then begin
      term.(slot) <- pos;
      count.(slot) <- 1
    end
    else if
      cls = Decode.ordinary
      && pos + Decode.length_of s < n
      && term.(next) >= 0
      && count.(next) < cap
    then begin
      term.(slot) <- term.(next);
      count.(slot) <- count.(next) + 1
    end
    else term.(slot) <- -1;
    if term.(slot) >= 0 && term.(slot) - pos <= params.max_back_bytes then begin
      let i = match Decode.insn ~pos text with Some (i, _) -> i | None -> assert false in
      let l = if cls = Decode.free_branch then [ i ] else i :: insns.(next) in
      insns.(slot) <- l;
      f pos l
    end
  done

let scan ?params text =
  let gadgets = ref [] in
  iter ?params text (fun start insns ->
      (* The sequence ends with its free branch. *)
      let stop =
        List.fold_left
          (fun pos _ -> pos + Decode.length_of (Decode.classify text pos))
          start insns
      in
      gadgets :=
        { offset = start; insns; bytes = String.sub text start (stop - start) }
        :: !gadgets);
  !gadgets

let count ?params text =
  let n = ref 0 in
  iter ?params text (fun _ _ -> incr n);
  !n
