let headroom = 0.3

type t = {
  probs : (string * Ir.label option, float) Hashtbl.t;
  p_cap : float;
  est_cycles : float;
  budget_cycles : float;
  planned_cycles : float;
}

let p_cap_of (config : Config.t) =
  match config.strategy with
  | Config.Off -> 0.0
  | Config.Uniform p -> p
  | Config.Profiled { pmax; _ } -> pmax

let mean_candidate_cost (config : Config.t) =
  let candidates =
    if config.Config.use_xchg then Nops.with_xchg else Nops.default
  in
  let total =
    Array.fold_left
      (fun acc i -> acc +. Timing.insn_cost Timing.default i)
      0.0 candidates
  in
  total /. float_of_int (Array.length candidates)

let item_cost (m : Timing.model) (item : Asm.item) =
  match item with
  | Asm.Label _ -> 0.0
  | Asm.Ins i -> Timing.insn_cost m i
  | Asm.Jmp_sym _ | Asm.Jcc_sym _ -> m.Timing.branch_cost
  | Asm.Call_sym _ -> m.Timing.call_cost
  | Asm.Mov_sym _ -> m.Timing.alu_cost (* mov r32, imm32 *)

(* One insertion site per non-label item — the same eligibility rule as
   Algorithm 1 (Nop_insert's walk). *)
let is_site = function Asm.Label _ -> false | _ -> true

type block = {
  bfunc : string;
  blabel : Ir.label option;
  count : int64;
  sites : int;
  static_cost : float;
}

let blocks_of (funcs : Asm.func list) ~profile =
  let m = Timing.default in
  List.concat_map
    (fun (f : Asm.func) ->
      (* Split at labels; items before the first label form a headless
         block (the emitter never produces one, but stay total). *)
      let flush acc label sites cost =
        if sites = 0 && label = None then acc
        else
          let count =
            match label with
            | Some l -> Profile.block_count profile ~func:f.Asm.name l
            | None -> 0L
          in
          {
            bfunc = f.Asm.name;
            blabel = label;
            count;
            sites;
            static_cost = cost;
          }
          :: acc
      in
      let rec walk items label sites cost acc =
        match items with
        | [] -> List.rev (flush acc label sites cost)
        | Asm.Label l :: rest -> walk rest (Some l) 0 0.0 (flush acc label sites cost)
        | item :: rest ->
            walk rest label
              (sites + if is_site item then 1 else 0)
              (cost +. item_cost m item)
              acc
      in
      walk f.Asm.items None 0 0.0 [])
    funcs

let plan ~config ~profile funcs =
  let p_cap = p_cap_of config in
  let budget_pct = Option.value config.Config.budget_pct ~default:0.0 in
  let mean_cost = mean_candidate_cost config in
  let blocks = blocks_of funcs ~profile in
  let est_cycles =
    List.fold_left
      (fun acc b -> acc +. (Int64.to_float b.count *. b.static_cost))
      0.0 blocks
  in
  let budget_cycles = est_cycles *. (budget_pct /. 100.0) *. headroom in
  (* Coldest first; ties broken by (function, label) so the plan is
     deterministic regardless of profile iteration order. *)
  let sorted =
    List.sort
      (fun a b ->
        match Int64.compare a.count b.count with
        | 0 -> compare (a.bfunc, a.blabel) (b.bfunc, b.blabel)
        | c -> c)
      blocks
  in
  let probs = Hashtbl.create 256 in
  let remaining = ref budget_cycles in
  let planned = ref 0.0 in
  List.iter
    (fun b ->
      let weight = Int64.to_float b.count *. float_of_int b.sites *. mean_cost in
      let p =
        if weight <= 0.0 then p_cap
        else
          let full = weight *. p_cap in
          if full <= !remaining then begin
            remaining := !remaining -. full;
            planned := !planned +. full;
            p_cap
          end
          else begin
            let p = !remaining /. weight in
            planned := !planned +. (p *. weight);
            remaining := 0.0;
            p
          end
      in
      Hashtbl.replace probs (b.bfunc, b.blabel) p)
    sorted;
  { probs; p_cap; est_cycles; budget_cycles; planned_cycles = !planned }

let prob t func label =
  match Hashtbl.find_opt t.probs (func, label) with
  | Some p -> p
  | None -> t.p_cap

let summary t = (t.est_cycles, t.budget_cycles, t.planned_cycles)
