type stats = { insns_seen : int; nops_inserted : int; bytes_added : int }

let zero = { insns_seen = 0; nops_inserted = 0; bytes_added = 0 }

let add a b =
  {
    insns_seen = a.insns_seen + b.insns_seen;
    nops_inserted = a.nops_inserted + b.nops_inserted;
    bytes_added = a.bytes_added + b.bytes_added;
  }

(* Labels for the jumped-over dummy blocks of the §6 extension.  Real
   block labels come from the IR builder and stay small; this range
   cannot collide. *)
let shift_label_base = 1_000_000

(* The candidate NOPs as ready-made items with their lengths, so an
   insertion allocates nothing and encodes nothing.  [Rng.choose]
   over these arrays draws exactly as it does over [Nops.default] and
   [Nops.with_xchg]. *)
let items_of candidates =
  Array.map
    (fun nop ->
      let item = Asm.ins nop in
      (item, Asm.item_size item))
    candidates

let default_items = items_of Nops.default
let xchg_items = items_of Nops.with_xchg

(* Basic-block shifting (paper §6): prepend "jmp past; <sled>; past:" to
   the function, displacing everything in it — including its first
   instructions, which plain NOP insertion barely moves. *)
let shift_function ~rng ~candidates (f : Asm.func) =
  let target = 1 + Rng.int rng 15 in
  let rec sled acc len =
    if len >= target then (acc, len)
    else
      let nop, n = Rng.choose rng candidates in
      sled (nop :: acc) (len + n)
  in
  let sled_items, bytes = sled [] 0 in
  let skip = shift_label_base in
  ( {
      f with
      Asm.items =
        (Asm.Jmp_sym skip :: sled_items) @ (Asm.Label skip :: f.Asm.items);
    },
    5 + bytes (* the jmp and the sled *) )

(* The block's pNOP as a function of its label, for one function. *)
let block_prob ?prob ~config ~profile ~xmax name =
  match prob with
  | Some p -> p name
  | None -> (
      match config.Config.strategy with
      | Config.Off -> fun _ -> 0.0
      | Config.Uniform p -> fun _ -> p
      | Config.Profiled { pmin; pmax; shape; scope } ->
          let max_count =
            match scope with
            | `Program -> xmax
            | `Function -> Profile.max_count_func profile name
          in
          fun label ->
            let count =
              match label with
              | Some l -> Profile.block_count profile ~func:name l
              | None -> 0L
            in
            Heuristic.pnop shape ~pmin ~pmax ~count ~max_count)

(* Algorithm 1 over one function's item stream.  Every non-label item is
   an instruction eligible for a preceding NOP.  The block's probability
   is evaluated once, at the first instruction after its label (or at the
   function's first instruction, for the unlabelled entry); it is a pure
   function of the label, so the draws are those of evaluating it at
   every instruction. *)
let run_with_xmax ?prob ~config ~profile ~rng ~xmax (f : Asm.func) =
  let candidates =
    if config.Config.use_xchg then xchg_items else default_items
  in
  let f, shift_bytes =
    if config.Config.bb_shift then shift_function ~rng ~candidates f
    else (f, 0)
  in
  let prob_of_block = block_prob ?prob ~config ~profile ~xmax f.Asm.name in
  let seen = ref 0 and inserted = ref 0 and added = ref shift_bytes in
  (* [p] is the current block's probability, [nan] until its first
     instruction. *)
  let rec walk block p acc = function
    | [] -> List.rev acc
    | (Asm.Label l as item) :: rest ->
        walk (Some l) Float.nan (item :: acc) rest
    | item :: rest ->
        incr seen;
        let p = if Float.is_nan p then prob_of_block block else p in
        (* Two sources of randomness (§3): whether to insert, and which
           candidate to insert. *)
        if Rng.bernoulli rng p then begin
          let nop, n = Rng.choose rng candidates in
          incr inserted;
          added := !added + n;
          walk block p (item :: nop :: acc) rest
        end
        else walk block p (item :: acc) rest
  in
  let items = walk None Float.nan [] f.Asm.items in
  ( { f with Asm.items },
    { insns_seen = !seen; nops_inserted = !inserted; bytes_added = !added } )

let run ~config ~profile ~rng f =
  match config.Config.strategy with
  | Config.Off -> (f, zero)
  | _ ->
      run_with_xmax ~config ~profile ~rng ~xmax:(Profile.max_count profile) f

let run_program ?prob ~config ~profile ~rng funcs =
  match config.Config.strategy with
  | Config.Off -> (funcs, zero)
  | _ ->
      let xmax = Profile.max_count profile in
      let total = ref zero in
      let out =
        List.map
          (fun f ->
            let f', s = run_with_xmax ?prob ~config ~profile ~rng ~xmax f in
            total := add !total s;
            f')
          funcs
      in
      (out, !total)
