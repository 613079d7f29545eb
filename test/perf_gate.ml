(* The CI perf-regression gate: one comparator over a table of rows.

     perf_gate --reports DIR --parallel DIR --baseline FILE
               [--inject-slowdown-pct P] [--write-baseline]

   Reports are bench's psd-bench/1 envelopes, DIR/<experiment>.json.
   Determinism: a report in both DIR and the --parallel DIR must carry
   the same "deterministic" section in both, numbers bit for bit, and at
   least one report must be in both.  Rows: the baseline (schema
   psd-perf-gate/2) lists {report, path, kind, value}, path dotted into
   the report's envelope.  A band holds |measured - value| within
   max(0.05, 2% of |value|), a floor holds measured >= value, a cap
   measured <= value.  An object value is compared key by key, and a
   key on only one side fails.  A row whose report or path is absent
   fails: no check skips itself.

   --inject-slowdown-pct P moves each measured value in its worse
   direction first (band and cap x(1+P/100), floor /(1+P/100)).
   --write-baseline rewrites the band rows' values in place from the
   reports and carries floor and cap rows over unchanged: floors and
   caps are policy, edited by hand (DESIGN.md "CI perf-regression
   gate"). *)

type kind = Band | Floor | Cap
type row = { report : string; path : string; kind : kind; value : Minijson.t }

let schema = "psd-perf-gate/2"
let kinds = [ ("band", Band); ("floor", Floor); ("cap", Cap) ]
let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

let die fmt =
  Printf.ksprintf (fun s -> print_endline ("FAIL " ^ s); exit 1) fmt

(* The parsed file, or [None] when it does not exist. *)
let load path =
  if not (Sys.file_exists path) then None
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
    match Minijson.parse text with
    | json -> Some json
    | exception Minijson.Bad msg -> die "%s is not valid JSON: %s" path msg

let lookup json path =
  List.fold_left
    (fun j key ->
      match j with
      | Some (Minijson.Obj kvs) -> List.assoc_opt key kvs
      | _ -> None)
    (Some json)
    (String.split_on_char '.' path)

let rows_of_baseline path =
  let json =
    match load path with Some j -> j | None -> die "baseline %s absent" path
  in
  let str k r = Minijson.(to_str (member k r)) in
  let row r =
    match List.assoc_opt (str "kind" r) kinds with
    | Some kind ->
        let value = Minijson.member "value" r in
        { report = str "report" r; path = str "path" r; kind; value }
    | None -> raise (Minijson.Bad ("unknown kind " ^ str "kind" r))
  in
  try
    if str "schema" json <> schema then
      raise (Minijson.Bad ("schema is not " ^ schema));
    List.map row Minijson.(to_list (member "rows" json))
  with Minijson.Bad msg -> die "baseline %s: %s" path msg

(* (ok, detail) of a measured value against its baseline value. *)
let rec judge ~scale kind measured base =
  match (measured, base) with
  | Minijson.Num m, Minijson.Num b ->
      let m = if kind = Floor then m /. scale else m *. scale in
      let allowed = Float.max 0.05 (0.02 *. Float.abs b) in
      let ok =
        match kind with
        | Band -> Float.abs (m -. b) <= allowed
        | Floor -> m >= b
        | Cap -> m <= b
      in
      let op =
        match (kind, ok) with
        | Floor, true -> ">="
        | Floor, false -> "<"
        | _, true -> "<="
        | _, false -> ">"
      in
      ( ok,
        match kind with
        | Band ->
            Printf.sprintf "%.3f (baseline %.3f, drift %.3f %s %.3f)" m b
              (Float.abs (m -. b)) op allowed
        | Floor | Cap ->
            Printf.sprintf "%.3f %s %s %.3f" m op (kind_name kind) b )
  | Minijson.Obj ms, Minijson.Obj bs ->
      let extra = List.filter (fun (k, _) -> not (List.mem_assoc k bs)) ms in
      let parts =
        List.map
          (fun (k, b) ->
            match List.assoc_opt k ms with
            | Some m ->
                let ok, d = judge ~scale kind m b in
                (ok, k ^ " " ^ d)
            | None -> (false, k ^ " absent from report"))
          bs
        @ List.map (fun (k, _) -> (false, k ^ " absent from baseline")) extra
      in
      (List.for_all fst parts, String.concat "; " (List.map snd parts))
  | _ -> (false, "report and baseline values differ in shape")

(* The first path at which two JSON values differ, numbers bit for bit. *)
let rec first_diff path a b =
  let bits = Int64.bits_of_float in
  match (a, b) with
  | Minijson.Num x, Minijson.Num y when Int64.equal (bits x) (bits y) -> None
  | Minijson.Obj xs, Minijson.Obj ys when List.map fst xs = List.map fst ys ->
      List.find_map
        (fun ((k, x), (_, y)) -> first_diff (path ^ "." ^ k) x y)
        (List.combine xs ys)
  | Minijson.Arr xs, Minijson.Arr ys when List.length xs = List.length ys ->
      List.find_map Fun.id
        (List.mapi
           (fun i (x, y) -> first_diff (Printf.sprintf "%s[%d]" path i) x y)
           (List.combine xs ys))
  | Minijson.(Null | Bool _ | Str _), _ when a = b -> None
  | _ -> Some path

let reports_in dir =
  match Sys.readdir dir with
  | files ->
      List.sort compare
        (List.filter
           (fun f -> Filename.check_suffix f ".json")
           (Array.to_list files))
  | exception Sys_error _ -> []

(* Baseline numbers: six decimals, trailing zeros dropped down to one. *)
let rec show = function
  | Minijson.Num f ->
      let s = Printf.sprintf "%.6f" f in
      let n = ref (String.length s) in
      while s.[!n - 1] = '0' && s.[!n - 2] <> '.' do decr n done;
      String.sub s 0 !n
  | Minijson.Obj kvs ->
      let field (k, v) = Printf.sprintf "%S: %s" k (show v) in
      "{" ^ String.concat ", " (List.map field kvs) ^ "}"
  | _ -> invalid_arg "perf_gate: baseline values are numbers or objects"

let write_baseline path rows =
  let line r =
    Printf.sprintf
      "    {\"report\": %S, \"path\": %S, \"kind\": %S, \"value\": %s}"
      r.report r.path (kind_name r.kind) (show r.value)
  in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n  \"schema\": %S,\n  \"rows\": [\n%s\n  ]\n}\n"
        schema
        (String.concat ",\n" (List.map line rows)));
  Printf.printf "baseline written to %s (%d rows)\n" path (List.length rows)

let usage =
  "usage: perf_gate --reports DIR --parallel DIR --baseline FILE \
   [--inject-slowdown-pct P] [--write-baseline]"

let () =
  let reports = ref "" and parallel = ref "" and baseline = ref "" in
  let inject = ref 0.0 and write = ref false in
  Arg.parse
    [
      ("--reports", Arg.Set_string reports, "DIR  reports under test");
      ("--parallel", Arg.Set_string parallel, "DIR  same reports at -j auto");
      ("--baseline", Arg.Set_string baseline, "FILE  the row table");
      ("--inject-slowdown-pct", Arg.Set_float inject, "P  self-test slowdown");
      ("--write-baseline", Arg.Set write, " rewrite the band rows in place");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let missing = !reports = "" || !baseline = "" in
  if missing || (!parallel = "" && not !write) then begin
    prerr_endline usage;
    exit 2
  end;
  let rows = rows_of_baseline !baseline in
  let measured r =
    let file = Filename.concat !reports (r.report ^ ".json") in
    match Option.map (fun j -> lookup j r.path) (load file) with
    | None -> Error (Printf.sprintf "report %s absent" file)
    | Some None -> Error (Printf.sprintf "path absent from %s" file)
    | Some (Some v) -> Ok v
  in
  if !write then
    write_baseline !baseline
      (List.map
         (fun r ->
           match (r.kind, measured r) with
           | Band, Ok v -> { r with value = v }
           | Band, Error e -> die "cannot rewrite %s %s: %s" r.report r.path e
           | (Floor | Cap), _ -> r)
         rows)
  else begin
    let failed = ref false in
    let check ok fmt =
      Printf.ksprintf
        (fun s ->
          if not ok then failed := true;
          print_endline ((if ok then "ok   " else "FAIL ") ^ s))
        fmt
    in
    let par = reports_in !parallel in
    let common = List.filter (fun f -> List.mem f par) (reports_in !reports) in
    if common = [] then
      check false "no report in both %s and %s to compare" !reports !parallel;
    List.iter
      (fun f ->
        let det dir =
          Option.bind (load (Filename.concat dir f)) (fun j ->
              lookup j "deterministic")
        in
        match (det !reports, det !parallel) with
        | Some a, Some b -> (
            match first_diff "deterministic" a b with
            | None ->
                check true "%s: deterministic section identical in %s and %s"
                  f !reports !parallel
            | Some p ->
                check false
                  "%s: %s differs between %s and %s (pool nondeterminism)" f
                  p !reports !parallel)
        | _ -> check false "%s: no deterministic section" f)
      common;
    let scale = 1.0 +. (!inject /. 100.0) in
    List.iter
      (fun r ->
        let ok, detail =
          match measured r with
          | Ok v -> judge ~scale r.kind v r.value
          | Error e -> (false, e)
        in
        check ok "%s %s (%s): %s" r.report r.path (kind_name r.kind) detail)
      rows;
    if !failed then begin
      print_endline
        "perf gate FAILED — if the change is intentional, refresh \
         test/perf_baseline.json with --write-baseline (see DESIGN.md)";
      exit 1
    end
    else print_endline "perf gate passed"
  end
