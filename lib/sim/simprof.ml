type block_row = {
  label : Ir.label;
  b_insns : int64;
  b_nops : int64;
  b_cycles : float;
}

type func_row = {
  fname : string;
  offset : int;
  in_runtime : bool;
  insns : int64;
  nops : int64;
  cycles : float;
  blocks : block_row list;
}

type t = {
  rows : func_row list;
  total_insns : int64;
  total_nops : int64;
  total_cycles : float;
}

(* Greatest entry of [a] (sorted ascending by first component) whose
   offset is <= [off]; [None] if all are greater. *)
let floor_find a off =
  let n = Array.length a in
  let rec go lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let o, _ = a.(mid) in
      if o <= off then go (mid + 1) hi (Some a.(mid)) else go lo (mid - 1) best
  in
  go 0 (n - 1) None

(* The image's layout, as binary-searchable tables: symbols sorted by
   offset, and each function's block-offset table. *)
let layout_tables (image : Link.image) =
  let syms =
    let a = Array.of_list image.symbols in
    Array.sort (fun (_, a) (_, b) -> compare a b) a;
    Array.map (fun (name, off) -> (off, name)) a
  in
  let blocks_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (fname, blocks) ->
        let a = Array.of_list (List.map (fun (l, o) -> (o, l)) blocks) in
        Array.sort compare a;
        Hashtbl.replace tbl fname a)
      image.block_offsets;
    tbl
  in
  (syms, blocks_of)

let of_exec (image : Link.image) (p : Sim.exec_profile) =
  let syms, blocks_of = layout_tables image in
  (* One accumulator per function, block table inside. *)
  let accs = Hashtbl.create 16 in
  let func_of_offset off =
    match floor_find syms off with
    | Some (fo, fname) -> (fo, fname)
    | None -> (0, "?")  (* unreachable: offset 0 is the entry stub *)
  in
  let n = Array.length p.insn_counts in
  for off = 0 to n - 1 do
    let c = p.insn_counts.(off) in
    if Int64.compare c 0L > 0 then begin
      let fo, fname = func_of_offset off in
      let facc =
        match Hashtbl.find_opt accs fname with
        | Some a -> a
        | None ->
            let a = (ref 0L, ref 0L, ref 0.0, Hashtbl.create 8, fo) in
            Hashtbl.replace accs fname a;
            a
      in
      let fi, fn, fc, blocks, _ = facc in
      fi := Int64.add !fi c;
      fn := Int64.add !fn p.nop_counts.(off);
      fc := !fc +. p.cycle_counts.(off);
      let label =
        match Hashtbl.find_opt blocks_of fname with
        | None -> -1
        | Some a -> (
            match floor_find a off with Some (_, l) -> l | None -> -1)
      in
      let bi, bn, bc =
        match Hashtbl.find_opt blocks label with
        | Some b -> b
        | None ->
            let b = (ref 0L, ref 0L, ref 0.0) in
            Hashtbl.replace blocks label b;
            b
      in
      bi := Int64.add !bi c;
      bn := Int64.add !bn p.nop_counts.(off);
      bc := !bc +. p.cycle_counts.(off)
    end
  done;
  let rows =
    Hashtbl.fold
      (fun fname (fi, fn, fc, blocks, fo) acc ->
        let block_rows =
          Hashtbl.fold
            (fun label (bi, bn, bc) acc ->
              { label; b_insns = !bi; b_nops = !bn; b_cycles = !bc } :: acc)
            blocks []
        in
        (* Count descending, label ascending on ties: labels are unique
           within a function, so the order is total and dumps diff
           cleanly across runs and -j levels. *)
        let block_rows =
          List.sort
            (fun a b ->
              match Int64.compare b.b_insns a.b_insns with
              | 0 -> compare a.label b.label
              | c -> c)
            block_rows
        in
        {
          fname;
          offset = fo;
          in_runtime = fo < image.user_start;
          insns = !fi;
          nops = !fn;
          cycles = !fc;
          blocks = block_rows;
        }
        :: acc)
      accs []
  in
  (* Count descending, text offset ascending on ties: offsets are unique
     per function, so the row order is total. *)
  let rows =
    List.sort
      (fun a b ->
        match Int64.compare b.insns a.insns with
        | 0 -> compare a.offset b.offset
        | c -> c)
      rows
  in
  {
    rows;
    total_insns =
      List.fold_left (fun acc r -> Int64.add acc r.insns) 0L rows;
    total_nops = List.fold_left (fun acc r -> Int64.add acc r.nops) 0L rows;
    total_cycles = List.fold_left (fun acc r -> acc +. r.cycles) 0.0 rows;
  }

let of_result image (r : Sim.result) =
  match r.exec_profile with
  | Some p -> of_exec image p
  | None -> invalid_arg "Simprof.of_result: run was not profiled"

let locator (image : Link.image) =
  let syms, blocks_of = layout_tables image in
  fun off ->
    let fname =
      match floor_find syms off with Some (_, f) -> f | None -> "?"
    in
    let label =
      match Hashtbl.find_opt blocks_of fname with
      | None -> -1
      | Some a -> (
          match floor_find a off with Some (_, l) -> l | None -> -1)
    in
    (fname, label, off < image.user_start)

let pct part total =
  if Int64.compare total 0L = 0 then 0.0
  else 100.0 *. Int64.to_float part /. Int64.to_float total

let truncate_rows ?top rows =
  match top with
  | None -> rows
  | Some n -> List.filteri (fun i _ -> i < max 0 n) rows

let pp_flat ?top ppf t =
  Format.fprintf ppf
    "runtime profile: %Ld instructions, %Ld candidate NOPs (%.3f%%), %.0f \
     cycles@."
    t.total_insns t.total_nops
    (pct t.total_nops t.total_insns)
    t.total_cycles;
  (match top with
  | Some n when n < List.length t.rows ->
      Format.fprintf ppf "showing top %d of %d functions@." n
        (List.length t.rows)
  | _ -> ());
  Format.fprintf ppf "%12s %7s %7s %10s %7s %12s  %s@." "insns" "flat%" "sum%"
    "nops" "nop%" "cycles" "function";
  let cum = ref 0L in
  List.iter
    (fun r ->
      cum := Int64.add !cum r.insns;
      Format.fprintf ppf "%12Ld %6.2f%% %6.2f%% %10Ld %6.2f%% %12.0f  %s%s@."
        r.insns
        (pct r.insns t.total_insns)
        (pct !cum t.total_insns)
        r.nops (pct r.nops r.insns) r.cycles r.fname
        (if r.in_runtime then " [runtime]" else ""))
    (truncate_rows ?top t.rows)

let block_json (b : block_row) =
  Jsonw.Obj
    [
      ("label", Jsonw.int b.label);
      ("insns", Jsonw.Int b.b_insns);
      ("nops", Jsonw.Int b.b_nops);
      ("cycles", Jsonw.Float b.b_cycles);
    ]

let row_json ~total ~cum (r : func_row) =
  Jsonw.Obj
    [
      ("function", Jsonw.Str r.fname);
      ("offset", Jsonw.int r.offset);
      ("runtime", Jsonw.Bool r.in_runtime);
      ("insns", Jsonw.Int r.insns);
      ("flat_pct", Jsonw.Float (pct r.insns total));
      ("sum_pct", Jsonw.Float (pct cum total));
      ("nops", Jsonw.Int r.nops);
      ("cycles", Jsonw.Float r.cycles);
      ("blocks", Jsonw.List (List.map block_json r.blocks));
    ]

let dump ?top t =
  let rows =
    let cum = ref 0L in
    List.map
      (fun r ->
        cum := Int64.add !cum r.insns;
        row_json ~total:t.total_insns ~cum:!cum r)
      (truncate_rows ?top t.rows)
  in
  Jsonw.Obj
    [
      ("schema", Jsonw.Str "psd-sim-profile/1");
      ( "total",
        Jsonw.Obj
          [
            ("insns", Jsonw.Int t.total_insns);
            ("nops", Jsonw.Int t.total_nops);
            ("cycles", Jsonw.Float t.total_cycles);
            ("functions", Jsonw.int (List.length t.rows));
          ] );
      ("functions", Jsonw.List rows);
    ]

let to_json ?top t = Jsonw.to_string (dump ?top t)
