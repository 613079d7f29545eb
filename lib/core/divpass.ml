type ctx = {
  prog : string;
  config : Config.t;
  profile : Profile.t;
  version : int;
}

type stats = { pass : string; seen : int; changed : int; bytes_added : int }
type report = stats list

type pass = {
  pname : string;
  enabled : Config.passes -> bool;
  run : ctx -> Asm.func list -> Asm.func list * stats;
}

(* Stream labels deliberately use [Config.base_name]: the pass-suffix-
   free identity.  Deriving from the full name would re-seed every
   stream whenever a pass is toggled (the name changes), destroying the
   bit-identity guarantee for the passes that did not change. *)
let nop_rng ctx =
  Rng.of_labels ctx.config.Config.seed
    [ ctx.prog; Config.base_name ctx.config; string_of_int ctx.version ]

let fn_rng ctx pname fname =
  Rng.of_labels ctx.config.Config.seed
    [
      ctx.prog;
      Config.base_name ctx.config;
      string_of_int ctx.version;
      "divpass";
      pname;
      fname;
    ]

(* Lift a per-function (func -> func * seen * changed) transform with a
   private per-function RNG stream into a program-level pass. *)
let per_function pname transform : pass =
  {
    pname;
    enabled =
      (fun p ->
        match pname with
        | "sched" -> p.Config.sched
        | "regperm" -> p.Config.regperm
        | _ -> assert false);
    run =
      (fun ctx funcs ->
        let seen = ref 0 and changed = ref 0 in
        let out =
          List.map
            (fun f ->
              let rng = fn_rng ctx pname f.Asm.name in
              let f', s, c = transform ~rng f in
              seen := !seen + s;
              changed := !changed + c;
              f')
            funcs
        in
        (out, { pass = pname; seen = !seen; changed = !changed; bytes_added = 0 }));
  }

let sched_pass = per_function "sched" Sched.run
let regperm_pass = per_function "regperm" Regperm.run

(* ---- equivalent-instruction substitution: the Subst rules driven by a
   flags-liveness scan over the item stream ---- *)

(* Are EFLAGS dead after this point?  Scan forward: a full flags writer
   kills them, any reader (including partial updaters and control flow)
   means live, and an unknown continuation (label, branch, call, end of
   stream) is conservatively live. *)
let rec flags_dead_after (items : Asm.item list) =
  match items with
  | [] -> false
  | Asm.Ins i :: rest -> (
      match Sched.flags_eff i with
      | `Writes -> true
      | `Reads -> false
      | `Neutral -> flags_dead_after rest)
  | Asm.Mov_sym _ :: rest -> flags_dead_after rest (* mov r, imm32 *)
  | (Asm.Label _ | Asm.Jmp_sym _ | Asm.Jcc_sym _ | Asm.Call_sym _) :: _ ->
      false

(* Each eligible site substitutes with probability 1/2, then picks
   uniformly among its alternatives — the same two-draw structure as
   Algorithm 1's insert/candidate split. *)
let subst_prob = 0.5

let subst_func ~rng (f : Asm.func) =
  let seen = ref 0 and changed = ref 0 and bytes = ref 0 in
  let rec walk = function
    | [] -> []
    | (Asm.Ins i as item) :: rest ->
        let alts =
          Subst.alternatives ~flags_dead:(flags_dead_after rest) i
        in
        let item' =
          if alts = [] then item
          else begin
            incr seen;
            if Rng.bernoulli rng subst_prob then begin
              let alt = Rng.choose rng (Array.of_list alts) in
              incr changed;
              bytes := !bytes + (Encode.length alt - Encode.length i);
              Asm.Ins alt
            end
            else item
          end
        in
        item' :: walk rest
    | item :: rest -> item :: walk rest
  in
  let items = walk f.Asm.items in
  ({ f with Asm.items }, !seen, !changed, !bytes)

let subst_pass =
  {
    pname = "subst";
    enabled = (fun p -> p.Config.subst);
    run =
      (fun ctx funcs ->
        let seen = ref 0 and changed = ref 0 and bytes = ref 0 in
        let out =
          List.map
            (fun f ->
              let rng = fn_rng ctx "subst" f.Asm.name in
              let f', s, c, b = subst_func ~rng f in
              seen := !seen + s;
              changed := !changed + c;
              bytes := !bytes + b;
              f')
            funcs
        in
        ( out,
          {
            pass = "subst";
            seen = !seen;
            changed = !changed;
            bytes_added = !bytes;
          } ));
  }

let nop_pass =
  {
    pname = "nop";
    enabled = (fun p -> p.Config.nop);
    run =
      (fun ctx funcs ->
        let config = ctx.config in
        let rng = nop_rng ctx in
        let prob =
          match (config.Config.budget_pct, config.Config.strategy) with
          | Some _, strategy when strategy <> Config.Off ->
              let plan =
                Budget.plan ~config ~profile:ctx.profile funcs
              in
              Some (Budget.prob plan)
          | _ -> None
        in
        let funcs, s =
          Nop_insert.run_program ?prob ~config ~profile:ctx.profile ~rng funcs
        in
        ( funcs,
          {
            pass = "nop";
            seen = s.Nop_insert.insns_seen;
            changed = s.Nop_insert.nops_inserted;
            bytes_added = s.Nop_insert.bytes_added;
          } ));
  }

let registry = [ sched_pass; regperm_pass; subst_pass; nop_pass ]
let run_all ctx funcs =
  let funcs, rev_stats =
    List.fold_left
      (fun (funcs, acc) pass ->
        if pass.enabled ctx.config.Config.passes then
          let funcs, s = pass.run ctx funcs in
          (funcs, s :: acc)
        else (funcs, acc))
      (funcs, []) registry
  in
  (funcs, List.rev rev_stats)

let nop_stats report =
  match List.find_opt (fun s -> s.pass = "nop") report with
  | Some s -> s
  | None -> { pass = "nop"; seen = 0; changed = 0; bytes_added = 0 }
