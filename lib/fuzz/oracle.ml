(* Multi-oracle differential harness.

   One generated program is executed under every oracle in the lattice
   (DESIGN.md): the reference interpreter at the bottom, the simulator on
   the baseline binary above it — under *both* execution engines, the
   fetch-decode interpreter and the block-cached engine — and the
   diversified binaries at the top, each at every optimization level:
   interp ⊑ sim ⊑ block-sim ⊑ diversified.  Observable behaviour (return
   value, printed output, trap/no-trap) must agree up the lattice at a
   fixed level; across levels, halting behaviours must agree while
   optimization is allowed to delete trapping dead code.  The two
   engines run every machine image (baseline and diversified) and must
   agree on the *full* observable tuple — status, output, retired
   instructions and NOPs, icache misses, cycles bit for bit, the
   per-offset execution profile, and on a trap the fault message plus
   every partial counter — with no skips: engine disagreement of any
   kind is a divergence.  On top of the behavioural checks, every
   halting interpreter run is used to validate the edge profiling
   machinery: the counts reconstructed from spanning-tree edge counters
   must equal the interpreter's exact block counts. *)

type trap_class = Div | Mem | Resource | Other

let trap_class_name = function
  | Div -> "div"
  | Mem -> "mem"
  | Resource -> "resource"
  | Other -> "other"

(* Substring containment (no stdlib equivalent). *)
let contains msg needle =
  let nl = String.length needle and ml = String.length msg in
  let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
  go 0

let classify msg =
  if contains msg "division" then Div
  else if contains msg "out of bounds" || contains msg "unaligned" then Mem
  else if contains msg "fuel" || contains msg "stack overflow" then Resource
  else Other

type outcome =
  | Halted of { ret : int32; output : string }
  | Trapped of { cls : trap_class; msg : string }

let outcome_to_string = function
  | Halted { ret; output } ->
      Printf.sprintf "halted ret=%ld output=%S" ret output
  | Trapped { cls; msg } ->
      Printf.sprintf "trapped [%s] %s" (trap_class_name cls) msg

type divergence = {
  left : string;  (** oracle label, e.g. ["interp\@O2"] *)
  right : string;  (** e.g. ["sim\@O2/p10-50/v1"] *)
  left_outcome : outcome;
  right_outcome : outcome;
  detail : string;
}

type report = {
  program : Gen.t;
  runs : int;  (** executions actually performed *)
  skips : (string * string) list;  (** (oracle pair, documented reason) *)
  divergence : divergence option;  (** the first divergence, if any *)
}

(* Bounded fuel so that a generator bug producing a non-terminating
   program surfaces as a both-sided Resource trap instead of a hang, and
   so that the rare generated program whose loops multiply through call
   chains stays cheap: the oracle runs each program ~50 times, so fuel
   bounds the cost of the whole matrix.  The machine executes several
   instructions per IR step, so the simulator gets proportionally more
   (runaway-recursion hazards need ~0.6M instructions to exhaust the
   machine stack, well inside the budget).  Programs between the two
   limits surface as one-sided Resource traps, i.e. documented skips. *)
let interp_fuel = 300_000L
let sim_fuel = 3_000_000L

(* ------------------------------------------------------------------ *)
(* Pairwise comparison rules.  [exact] compares two oracles at the same
   optimization level, where behaviour must match bit for bit:
   - both halted: return value and output must be equal;
   - both trapped: agree.  The trap *classes* may differ — e.g. runaway
     recursion hits the interpreter's call-depth bound (resource) but
     exhausts the simulator's machine stack (memory);
   - one-sided trap: a divergence, except a one-sided Resource trap,
     which is a documented skip — the interpreter's fuel counts IR steps
     and its call depth counts frames, while the simulator counts
     instructions and stack bytes, so the limits cannot coincide. *)

type cmp = Agree | Skipped of string | Diverged of string

let exact a b =
  match (a, b) with
  | Halted x, Halted y ->
      if Int32.equal x.ret y.ret && String.equal x.output y.output then Agree
      else
        Diverged
          (Printf.sprintf "observable mismatch: ret %ld vs %ld, output %S vs %S"
             x.ret y.ret x.output y.output)
  | Trapped _, Trapped _ -> Agree
  | Halted _, Trapped { cls = Resource; msg }
  | Trapped { cls = Resource; msg }, Halted _ ->
      Skipped ("one-sided resource trap: " ^ msg)
  | Halted _, Trapped { msg; _ } -> Diverged ("right trapped, left halted: " ^ msg)
  | Trapped { msg; _ }, Halted _ -> Diverged ("left trapped, right halted: " ^ msg)

(* Across optimization levels only halting behaviour must be stable;
   optimization may legitimately delete dead trapping code (so trap vs
   halt is allowed in either direction — a weaker relation, hence a
   separate rule, not a special case of [exact]). *)
let cross_level a b =
  match (a, b) with
  | Halted x, Halted y ->
      if Int32.equal x.ret y.ret && String.equal x.output y.output then Agree
      else
        Diverged
          (Printf.sprintf
             "cross-level mismatch: ret %ld vs %ld, output %S vs %S" x.ret
             y.ret x.output y.output)
  | _ -> Agree

(* ------------------------------------------------------------------ *)
(* Oracle executions. *)

let run_interp (c : Driver.compiled) ~args =
  match Interp.run ~fuel:interp_fuel c.modul ~entry:"main" ~args with
  | r -> (Halted { ret = r.ret; output = r.output }, Some r)
  | exception Interp.Trap msg ->
      (Trapped { cls = classify msg; msg }, None)

let run_sim ~reference image ~args =
  let run = if reference then Sim.Reference.run_outcome else Sim.run_outcome in
  match run ~fuel:sim_fuel ~profile:true image ~args with
  | Sim.Finished r -> (Halted { ret = r.status; output = r.output }, Sim.Finished r)
  | Sim.Faulted f ->
      ( Trapped { cls = classify f.fault_msg; msg = f.fault_msg },
        Sim.Faulted f )

(* Engine parity: the block-cached engine against the simulator's
   interpreter on the *same image* must agree on everything, not just the
   behavioural outcome — equal fuel in equal units, equal timing model,
   so there is no documented asymmetry to skip.  Cycles are compared bit
   for bit, and the per-offset execution profile element-wise. *)

let profile_mismatch (a : Sim.exec_profile) (b : Sim.exec_profile) =
  if a.Sim.insn_counts <> b.Sim.insn_counts then Some "exec_profile insn_counts"
  else if a.Sim.nop_counts <> b.Sim.nop_counts then
    Some "exec_profile nop_counts"
  else begin
    let n = Array.length a.Sim.cycle_counts in
    let bad = ref None in
    for i = 0 to n - 1 do
      if
        !bad = None
        && Int64.bits_of_float a.Sim.cycle_counts.(i)
           <> Int64.bits_of_float b.Sim.cycle_counts.(i)
      then bad := Some (Printf.sprintf "exec_profile cycles at offset %d" i)
    done;
    !bad
  end

let tuple_mismatch (a : Sim.result) (b : Sim.result) =
  let d fmt = Printf.ksprintf Option.some fmt in
  if a.Sim.status <> b.Sim.status then
    d "status %ld vs %ld" a.Sim.status b.Sim.status
  else if a.Sim.output <> b.Sim.output then
    d "output %S vs %S" a.Sim.output b.Sim.output
  else if a.Sim.instructions <> b.Sim.instructions then
    d "instructions %Ld vs %Ld" a.Sim.instructions b.Sim.instructions
  else if a.Sim.nops_retired <> b.Sim.nops_retired then
    d "nops_retired %Ld vs %Ld" a.Sim.nops_retired b.Sim.nops_retired
  else if a.Sim.icache_misses <> b.Sim.icache_misses then
    d "icache_misses %Ld vs %Ld" a.Sim.icache_misses b.Sim.icache_misses
  else if Int64.bits_of_float a.Sim.cycles <> Int64.bits_of_float b.Sim.cycles
  then d "cycles %h vs %h" a.Sim.cycles b.Sim.cycles
  else
    match (a.Sim.exec_profile, b.Sim.exec_profile) with
    | Some pa, Some pb -> profile_mismatch pa pb
    | None, None -> None
    | _ -> Some "exec_profile presence"

let engines_agree (a : Sim.outcome) (b : Sim.outcome) =
  match (a, b) with
  | Sim.Finished x, Sim.Finished y -> (
      match tuple_mismatch x y with
      | None -> Agree
      | Some m -> Diverged ("engine tuple mismatch: " ^ m))
  | Sim.Faulted x, Sim.Faulted y ->
      if x.fault_msg <> y.fault_msg then
        Diverged
          (Printf.sprintf "engine fault mismatch: %S vs %S" x.fault_msg
             y.fault_msg)
      else (
        match tuple_mismatch x.partial y.partial with
        | None -> Agree
        | Some m -> Diverged ("engine tuple mismatch at fault: " ^ m))
  | Sim.Finished _, Sim.Faulted f ->
      Diverged ("block engine trapped, sim interp halted: " ^ f.fault_msg)
  | Sim.Faulted f, Sim.Finished _ ->
      Diverged ("sim interp trapped, block engine halted: " ^ f.fault_msg)

(* ------------------------------------------------------------------ *)
(* Profile invariant: for every function, reconstructing edge counts from
   spanning-tree counter placement must reproduce the interpreter's exact
   measurements (§3.1's instrumentation scheme, validated on every fuzzed
   program rather than a handful of hand-written ones). *)

let measured_edges fname (r : Interp.result) (s, d) =
  if s = Spanning.exit_label then
    Option.value (Hashtbl.find_opt r.counts.calls fname) ~default:0L
  else if d = Spanning.exit_label then
    Option.value (Hashtbl.find_opt r.counts.blocks (fname, s)) ~default:0L
  else Option.value (Hashtbl.find_opt r.counts.edges (fname, s, d)) ~default:0L

let check_profile_invariant (c : Driver.compiled) (r : Interp.result) =
  let check_func (f : Ir.func) =
    let count = measured_edges f.Ir.name r in
    let placement = Spanning.place ~weights:count f in
    let reconstructed = Spanning.reconstruct placement ~measured:count in
    let edge_err =
      List.find_map
        (fun (e, v) ->
          let expected = count e in
          if Int64.equal v expected then None
          else
            Some
              (Printf.sprintf "%s: edge (%d,%d) reconstructed %Ld, measured %Ld"
                 f.Ir.name (fst e) (snd e) v expected))
        reconstructed
    in
    match edge_err with
    | Some _ as e -> e
    | None ->
        List.find_map
          (fun (l, v) ->
            let expected =
              Option.value
                (Hashtbl.find_opt r.counts.blocks (f.Ir.name, l))
                ~default:0L
            in
            if Int64.equal v expected then None
            else
              Some
                (Printf.sprintf "%s: block L%d derived %Ld, measured %Ld"
                   f.Ir.name l v expected))
          (Spanning.block_counts_of_edges f reconstructed)
  in
  List.find_map check_func c.modul.Ir.funcs

(* ------------------------------------------------------------------ *)

let levels_all = [ Pipeline.O0; Pipeline.O1; Pipeline.O2 ]

let level_name = function
  | Pipeline.O0 -> "O0"
  | Pipeline.O1 -> "O1"
  | Pipeline.O2 -> "O2"

exception Stop of divergence

(* The config lattice the oracle sweeps by default: the five paper NOP
   configs plus one cell per divpass transform in isolation
   (scheduling-only, substitution-only, register-permutation-only ride
   on the [off] strategy, so any divergence is attributable to that one
   transform) and a budgeted everything-on cell that exercises the
   planner path.  Specs resolve through [Config.of_spec] so the fuzz
   campaign also exercises the one shared grammar. *)
let divpass_configs =
  List.map
    (fun spec ->
      match Config.of_spec spec with
      | Ok c -> (spec, c)
      | Error e -> invalid_arg ("Oracle.divpass_configs: " ^ spec ^ ": " ^ e))
    [
      "off+sched";
      "off+subst";
      "off+regperm";
      "p0-30+sched+regperm+subst+b1";
    ]

let default_configs = Config.paper_configs @ divpass_configs

let check ?(levels = levels_all) ?(configs = default_configs)
    ?(versions = 3) (p : Gen.t) =
  let runs = ref 0 in
  let skips = ref [] in
  let record_cmp ~left ~right a b = function
    | Agree -> ()
    | Skipped reason ->
        skips := (Printf.sprintf "%s vs %s" left right, reason) :: !skips
    | Diverged detail ->
        raise
          (Stop { left; right; left_outcome = a; right_outcome = b; detail })
  in
  let interp_outcomes = ref [] in
  let divergence =
    try
      List.iter
        (fun level ->
          let ln = level_name level in
          let c =
            try Driver.compile ~opt:level ~name:p.Gen.name p.Gen.source
            with Failure msg ->
              (* The generator's output must always compile; a frontend
                 rejection is itself a reportable bug. *)
              raise
                (Stop
                   {
                     left = "generator";
                     right = "frontend@" ^ ln;
                     left_outcome = Halted { ret = 0l; output = "" };
                     right_outcome = Trapped { cls = Other; msg };
                     detail = "generated program rejected: " ^ msg;
                   })
          in
          let args = p.Gen.args in
          incr runs;
          let oi, ir_result = run_interp c ~args in
          interp_outcomes := (ln, oi) :: !interp_outcomes;
          (* Profiling invariant, on every halting interpreter run. *)
          (match ir_result with
          | Some r -> (
              match check_profile_invariant c r with
              | None -> ()
              | Some detail ->
                  raise
                    (Stop
                       {
                         left = "interp@" ^ ln;
                         right = "spanning@" ^ ln;
                         left_outcome = oi;
                         right_outcome = oi;
                         detail = "profile reconstruction: " ^ detail;
                       }))
          | None -> ());
          let baseline = Driver.link_baseline c in
          incr runs;
          let os, rs = run_sim ~reference:true baseline ~args in
          record_cmp ~left:("interp@" ^ ln) ~right:("sim@" ^ ln) oi os
            (exact oi os);
          incr runs;
          let ob, rbk = run_sim ~reference:false baseline ~args in
          record_cmp ~left:("sim@" ^ ln) ~right:("block-sim@" ^ ln) os ob
            (engines_agree rs rbk);
          (* Diversified variants must be observationally identical to
             the baseline binary at the same level, for every paper
             config and several independent seeds. *)
          let profile =
            match ir_result with
            | Some r -> Profile.of_block_counts r.counts.blocks
            | None -> Profile.empty
          in
          List.iter
            (fun (cname, config) ->
              for version = 1 to versions do
                let image, _stats =
                  Driver.diversify_linked c ~config ~profile ~version
                in
                incr runs;
                let od, rd = run_sim ~reference:true image ~args in
                let right =
                  Printf.sprintf "sim@%s/%s/v%d" ln cname version
                in
                record_cmp ~left:("sim@" ^ ln) ~right os od (exact os od);
                incr runs;
                let _odb, rdb = run_sim ~reference:false image ~args in
                record_cmp ~left:right
                  ~right:(Printf.sprintf "block-sim@%s/%s/v%d" ln cname version)
                  od _odb
                  (engines_agree rd rdb)
              done)
            configs)
        levels;
      (* Cross-level agreement of the reference semantics. *)
      (match !interp_outcomes with
      | (ln0, o0) :: rest ->
          List.iter
            (fun (ln, o) ->
              record_cmp ~left:("interp@" ^ ln0) ~right:("interp@" ^ ln) o0 o
                (cross_level o0 o))
            rest
      | [] -> ());
      None
    with Stop d -> Some d
  in
  { program = p; runs = !runs; skips = List.rev !skips; divergence }
