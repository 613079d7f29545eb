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
let shift_function ~rng ~candidates f =
  let target = 1 + Rng.int rng 15 in
  let rec sled acc len =
    if len >= target then (acc, len)
    else
      let nop, n = Rng.choose rng candidates in
      sled (nop :: acc) (len + n)
  in
  let sled_items, bytes = sled [] 0 in
  let skip = shift_label_base in
  ( Asm.func (Asm.name f)
      ((Asm.Jmp_sym skip :: sled_items) @ (Asm.Label skip :: Asm.items f)),
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
            | `Program -> Lazy.force xmax
            | `Function -> Profile.max_count_func profile name
          in
          fun label ->
            let count =
              match label with
              | Some l -> Profile.block_count profile ~func:name l
              | None -> 0L
            in
            Heuristic.pnop shape ~pmin ~pmax ~count ~max_count)

(* A function's trials, block by block, as one flat array: for each
   block that holds instructions, its end (it starts where the one
   before ends) and its {!Rng.threshold}.  A block's pNOP is evaluated
   once, in block order, and a block without instructions is never
   evaluated (block 0 is the unlabelled entry, block [b > 0] the one
   [labels.(b - 1)] starts). *)
let trials prob_of_block (l : Asm.layout) =
  let starts = l.Asm.block_starts in
  List.init (Array.length starts - 1) Fun.id
  |> List.filter (fun b -> starts.(b) < starts.(b + 1))
  |> List.concat_map (fun b ->
         [
           starts.(b + 1);
           Rng.threshold
             (prob_of_block (if b = 0 then None else Some l.Asm.labels.(b - 1)));
         ])
  |> Array.of_list

(* A program's trials are a function of the profile, the strategy
   and the functions alone, so they are kept per profile: one entry per
   strategy, for the last function list seen under it.  [Profile.t] is
   immutable, so its physical identity is a sound key, and the table
   holds a profile's entries only while the profile lives. *)
module By_profile = Ephemeron.K1.Make (struct
  type t = Profile.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type memo = {
  strategy : Config.strategy;
  funcs : Asm.func list;
  trials : int array list;
}

let memo : memo list By_profile.t = By_profile.create 16

let memoized ~profile ~strategy funcs compute =
  let entries = Option.value (By_profile.find_opt memo profile) ~default:[] in
  let same e = compare e.strategy strategy = 0 in
  match List.find_opt (fun e -> e.funcs == funcs && same e) entries with
  | Some e -> e.trials
  | None ->
      let trials = compute () in
      By_profile.replace memo profile
        ({ strategy; funcs; trials }
        :: List.filter (fun e -> not (same e)) entries);
      trials

(* Algorithm 1 over one function's layout: instruction [j] gets one
   trial at its block's threshold, then on success one candidate choice,
   so the draws are those of a walk over the items that evaluates the
   block's pNOP at every instruction.  [buf] holds the insertions while
   they are drawn; it grows as needed and is reused by the next
   function. *)
let draw_function ~rng ~candidates ~buf trials f =
  let at, what = !buf in
  let at = ref at and what = ref what in
  let inserted = ref 0 and added = ref 0 and start = ref 0 in
  for b = 0 to (Array.length trials / 2) - 1 do
    let stop = trials.(2 * b) and threshold = trials.((2 * b) + 1) in
    let j = ref !start in
    while !j < stop do
      (* Two sources of randomness (§3): whether to insert, and which
         candidate to insert. *)
      let k = !j + Rng.first_success rng threshold (stop - !j) in
      if k < stop then begin
        let nop, size = Rng.choose rng candidates in
        if !inserted = Array.length !at then begin
          at := Array.append !at !at;
          what := Array.append !what !what
        end;
        !at.(!inserted) <- k;
        !what.(!inserted) <- nop;
        incr inserted;
        added := !added + size
      end;
      j := k + 1
    done;
    start := stop
  done;
  buf := (!at, !what);
  ( Asm.insert f (Array.sub !at 0 !inserted) (Array.sub !what 0 !inserted),
    { insns_seen = !start; nops_inserted = !inserted; bytes_added = !added } )

let run_program ?prob ~config ~profile ~rng funcs =
  match config.Config.strategy with
  | Config.Off -> (funcs, zero)
  | strategy ->
      let candidates =
        if config.Config.use_xchg then xchg_items else default_items
      in
      let xmax = lazy (Profile.max_count profile) in
      let trials f =
        trials
          (block_prob ?prob ~config ~profile ~xmax (Asm.name f))
          (Asm.layout f)
      in
      let total = ref zero in
      let buf = ref (Array.make 16 0, Array.make 16 (fst candidates.(0))) in
      let draw f trials =
        let f, s = draw_function ~rng ~candidates ~buf trials f in
        total := add !total s;
        f
      in
      let out =
        if config.Config.bb_shift then
          List.map
            (fun f ->
              let f, bytes = shift_function ~rng ~candidates f in
              total := add !total { zero with bytes_added = bytes };
              draw f (trials f))
            funcs
        else
          let all () = List.map trials funcs in
          List.map2 draw funcs
            (match prob with
            | Some _ -> all ()
            | None -> memoized ~profile ~strategy funcs all)
      in
      (out, !total)
