open Insn

(* Conservative effect summary of one concrete instruction. *)
type eff = {
  reads : Reg.t list;
  writes : Reg.t list;
  mem_read : bool;
  mem_write : bool;
  flags_read : bool;
  flags_write : bool;
}

let none =
  {
    reads = [];
    writes = [];
    mem_read = false;
    mem_write = false;
    flags_read = false;
    flags_write = false;
  }

let mem_regs (m : Insn.mem) =
  (match m.base with Some b -> [ b ] | None -> [])
  @ match m.index with Some (i, _) -> [ i ] | None -> []

let operand_regs = function Reg r -> [ r ] | Mem m -> mem_regs m
let is_mem = function Mem _ -> true | Reg _ -> false

(* Reading through an operand: a Reg operand reads the register, a Mem
   operand reads its address registers plus memory. *)
let rd op e =
  {
    e with
    reads = operand_regs op @ e.reads;
    mem_read = e.mem_read || is_mem op;
  }

(* Writing through an operand: a Reg operand writes the register, a Mem
   operand reads its address registers and writes memory. *)
let wr op e =
  match op with
  | Reg r -> { e with writes = r :: e.writes }
  | Mem m ->
      { e with reads = mem_regs m @ e.reads; mem_write = true }

let rdr r e = { e with reads = r :: e.reads }
let wrr r e = { e with writes = r :: e.writes }
let fw e = { e with flags_write = true }

(* Partial flag updates ([inc] preserves CF, shifts leave flags alone on
   a zero count): order them as both reader and writer so they never
   commute with any other flag operation. *)
let fpartial e = { e with flags_read = true; flags_write = true }

let eff (i : Insn.t) : eff =
  match i with
  | Mov_rm_r (d, s) -> none |> rdr s |> wr d
  | Mov_r_rm (d, s) -> none |> rd s |> wrr d
  | Mov_r_imm (d, _) -> none |> wrr d
  | Mov_rm_imm (d, _) -> none |> wr d
  | Alu_rm_r (Cmp, d, s) -> none |> rdr s |> rd d |> fw
  | Alu_rm_r ((Adc | Sbb), d, s) -> none |> rdr s |> rd d |> wr d |> fpartial
  | Alu_rm_r (_, d, s) -> none |> rdr s |> rd d |> wr d |> fw
  | Alu_r_rm (Cmp, d, s) -> none |> rdr d |> rd s |> fw
  | Alu_r_rm ((Adc | Sbb), d, s) ->
      none |> rdr d |> rd s |> wrr d |> fpartial
  | Alu_r_rm (_, d, s) -> none |> rdr d |> rd s |> wrr d |> fw
  | Alu_rm_imm (Cmp, d, _) -> none |> rd d |> fw
  | Alu_rm_imm ((Adc | Sbb), d, _) -> none |> rd d |> wr d |> fpartial
  | Alu_rm_imm (_, d, _) -> none |> rd d |> wr d |> fw
  | Test_rm_r (d, s) -> none |> rdr s |> rd d |> fw
  | Lea (d, m) -> { none with reads = mem_regs m; writes = [ d ] }
  | Inc_r r | Dec_r r -> none |> rdr r |> wrr r |> fpartial
  | Neg o -> none |> rd o |> wr o |> fw
  | Not o -> none |> rd o |> wr o
  | Imul_r_rm (d, s) -> none |> rdr d |> rd s |> wrr d |> fw
  | Mul o ->
      none |> rdr Reg.EAX |> rd o |> wrr Reg.EAX |> wrr Reg.EDX |> fw
  | Idiv o ->
      none |> rdr Reg.EAX |> rdr Reg.EDX |> rd o |> wrr Reg.EAX
      |> wrr Reg.EDX |> fw
  | Cdq -> none |> rdr Reg.EAX |> wrr Reg.EDX
  | Shift_imm (_, o, _) -> none |> rd o |> wr o |> fpartial
  | Shift_cl (_, o) -> none |> rdr Reg.ECX |> rd o |> wr o |> fpartial
  | Push_r r ->
      { (none |> rdr r |> rdr Reg.ESP |> wrr Reg.ESP) with mem_write = true }
  | Push_imm _ ->
      { (none |> rdr Reg.ESP |> wrr Reg.ESP) with mem_write = true }
  | Pop_r r ->
      { (none |> rdr Reg.ESP |> wrr Reg.ESP |> wrr r) with mem_read = true }
  | Setcc (_, r8) ->
      (* Writes only the low byte: the rest of the register survives, so
         it is a read-modify-write of the full register. *)
      let r = Reg.of_r8 r8 in
      { (none |> rdr r |> wrr r) with flags_read = true }
  | Movzx_r_r8 (d, s8) -> none |> rdr (Reg.of_r8 s8) |> wrr d
  | Xchg_rm_r (o, r) -> none |> rdr r |> wrr r |> rd o |> wr o
  | Nop -> none
  | Ret | Ret_imm _ | Call_rel _ | Call_rm _ | Jmp_rel _ | Jmp_rel8 _
  | Jmp_rm _ | Jcc _ | Jcc8 _ | Int _ | Hlt ->
      (* Barriers: never inside a schedulable run (kept total for
         safety — an effect that conflicts with everything). *)
      {
        reads = Reg.all;
        writes = Reg.all;
        mem_read = true;
        mem_write = true;
        flags_read = true;
        flags_write = true;
      }

let flags_eff i =
  let e = eff i in
  if e.flags_read then `Reads
  else if e.flags_write then `Writes
  else `Neutral

let overlaps a b = List.exists (fun r -> List.exists (Reg.equal r) b) a

(* Must instruction [b] stay after instruction [a]? *)
let depends (a : eff) (b : eff) =
  overlaps a.writes b.reads
  || overlaps a.reads b.writes
  || overlaps a.writes b.writes
  || (a.mem_write && (b.mem_read || b.mem_write))
  || (a.mem_read && b.mem_write)
  || (a.flags_write && (b.flags_read || b.flags_write))
  || (a.flags_read && b.flags_write)

(* Uniformly random list schedule of one straight-line run: repeatedly
   pick a random element of the ready set (no unscheduled predecessor).
   The ready set is kept in original-index order so the draw sequence is
   deterministic for a given RNG stream. *)
let schedule_run ~rng (insns : Insn.t array) =
  let n = Array.length insns in
  let effs = Array.map eff insns in
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if depends effs.(i) effs.(j) then begin
        succs.(i) <- j :: succs.(i);
        indeg.(j) <- indeg.(j) + 1
      end
    done
  done;
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then ready := i :: !ready
  done;
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    let nr = List.length !ready in
    let pick = Rng.int rng nr in
    let chosen = List.nth !ready pick in
    out.(k) <- chosen;
    ready := List.filter (fun i -> i <> chosen) !ready;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then
          (* Keep ascending order for a deterministic draw sequence. *)
          ready :=
            let rec ins = function
              | [] -> [ j ]
              | x :: rest when x < j -> x :: ins rest
              | rest -> j :: rest
            in
            ins !ready)
      (List.rev succs.(chosen))
  done;
  out

let schedulable = function
  | Asm.Ins { insn; _ } -> not (Insn.is_control_flow insn)
  | _ -> false

let run ~rng (f : Asm.func) =
  let seen = ref 0 and moved = ref 0 in
  let flush run_rev acc =
    match run_rev with
    | [] | [ _ ] -> List.rev_append run_rev acc
    | _ ->
        let items = Array.of_list (List.rev run_rev) in
        let insns =
          Array.map
            (function Asm.Ins { insn; _ } -> insn | _ -> assert false)
            items
        in
        let order = schedule_run ~rng insns in
        let n = Array.length order in
        seen := !seen + n;
        Array.iteri (fun k i -> if k <> i then incr moved) order;
        (* acc is reversed, so append the schedule reversed. *)
        let out = ref acc in
        Array.iter (fun i -> out := items.(i) :: !out) order;
        !out
  in
  let rec walk items run_rev acc =
    match items with
    | [] -> List.rev (flush run_rev acc)
    | item :: rest ->
        if schedulable item then walk rest (item :: run_rev) acc
        else walk rest [] (item :: flush run_rev acc)
  in
  let items = walk (Asm.items f) [] [] in
  (Asm.func (Asm.name f) items, !seen, !moved)
