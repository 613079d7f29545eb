type t = { offset : int; insns : Insn.t list; bytes : string }

let pp ppf g =
  Format.fprintf ppf "@[<h>0x%x: %a@]" g.offset
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ; ")
       Insn.pp)
    g.insns

type params = { max_insns : int; max_back_bytes : int }

let default_params = { max_insns = 8; max_back_bytes = 30 }

(* The decodes of one section, each offset decoded at most once, on
   demand: a scan visits the same offsets from many candidate starts. *)
type decoder = {
  text : string;
  memo : (Insn.t * int) option array;
  seen : Bytes.t;
}

let decoder text =
  let n = String.length text in
  { text; memo = Array.make n None; seen = Bytes.make n '\000' }

let decode d pos =
  if pos < 0 || pos >= String.length d.text then None
  else if Bytes.unsafe_get d.seen pos <> '\000' then Array.unsafe_get d.memo pos
  else begin
    let r = Decode.insn ~pos d.text in
    Array.unsafe_set d.memo pos r;
    Bytes.unsafe_set d.seen pos '\001';
    r
  end

(* Every free branch starts with C3 (ret), C2 (ret imm16) or FF (the
   indirect call/jmp group) — the decoder knows no prefixes — so only
   offsets holding one of those bytes are decoded. *)
let sites d =
  let sites = ref [] in
  for pos = String.length d.text - 1 downto 0 do
    match String.unsafe_get d.text pos with
    | '\xC3' | '\xC2' | '\xFF' -> (
        match decode d pos with
        | Some (i, len) when Insn.is_free_branch i -> sites := (pos, len) :: !sites
        | _ -> ())
    | _ -> ()
  done;
  !sites

let free_branch_sites text = sites (decoder text)

(* Software interrupts do not break the straight-line property: execution
   resumes at the next instruction, and "int 0x80; ret" is the canonical
   syscall gadget every scanner looks for. *)
let breaks_gadget i =
  Insn.is_control_flow i && (match i with Insn.Int _ -> false | _ -> true)

(* The linear sweep from a start is deterministic: it is a gadget iff the
   first instruction that breaks a gadget is a free branch at most
   [max_back_bytes] past the start, reached within [max_insns]
   instructions (the branch alone always counts).  Sweeps from nearby
   starts merge, so [term] and [count] memoize, per offset, the sweep's
   breaking instruction and its length in instructions. *)
let iter ?(params = default_params) d f =
  let n = String.length d.text in
  let cap = max 1 params.max_insns in
  (* [term.(pos)]: -2 not yet swept, -1 no gadget tail within [cap]
     instructions, else the breaking instruction's offset. *)
  let term = Array.make n (-2) and count = Array.make n 0 in
  (* Resolve [start]: walk forward to the first offset already
     resolved, then resolve the offsets walked, nearest first. *)
  let sweep start =
    let rec walk pos path =
      if term.(pos) <> -2 then path
      else
        match decode d pos with
        | None ->
            term.(pos) <- -1;
            path
        | Some (i, _) when breaks_gadget i ->
            term.(pos) <- pos;
            count.(pos) <- 1;
            path
        | Some (_, len) ->
            if pos + len >= n then begin
              term.(pos) <- -1;
              path
            end
            else walk (pos + len) (pos :: path)
    in
    List.iter
      (fun pos ->
        let nx = pos + snd (Option.get (decode d pos)) in
        if term.(nx) < 0 || count.(nx) >= cap then term.(pos) <- -1
        else begin
          term.(pos) <- term.(nx);
          count.(pos) <- count.(nx) + 1
        end)
      (walk start [])
  in
  let is_gadget = Bytes.make n '\000' in
  List.iter
    (fun (branch, _) ->
      for start = max 0 (branch - params.max_back_bytes) to branch do
        sweep start;
        if term.(start) = branch then Bytes.set is_gadget start '\001'
      done)
    (sites d);
  for start = 0 to n - 1 do
    if Bytes.get is_gadget start <> '\000' then begin
      let rec insns pos k =
        let i, len = Option.get (decode d pos) in
        if k = 1 then [ i ] else i :: insns (pos + len) (k - 1)
      in
      f start (insns start count.(start))
    end
  done

let scan ?params text =
  let d = decoder text in
  let gadgets = ref [] in
  iter ?params d (fun start insns ->
      (* The sequence ends with its free branch. *)
      let stop =
        List.fold_left
          (fun pos _ -> pos + snd (Option.get (decode d pos)))
          start insns
      in
      gadgets :=
        { offset = start; insns; bytes = String.sub text start (stop - start) }
        :: !gadgets);
  List.rev !gadgets

let count ?params text =
  let n = ref 0 in
  iter ?params (decoder text) (fun _ _ -> incr n);
  !n
