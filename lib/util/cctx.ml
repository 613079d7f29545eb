type stat = {
  stage : string;
  pass : string;
  func : string;
  time_s : float;
  items_before : int;
  items_after : int;
  bytes : int;
  changed : bool;
}

type agg = {
  a_stage : string;
  a_pass : string;
  runs : int;
  changed_runs : int;
  total_s : float;
  delta : int;
  total_bytes : int;
}

type t = {
  cname : string;
  mutable recorded : stat list;  (* reverse chronological *)
}

let create cname = { cname; recorded = [] }

let timed f =
  (* Monotonic: a stepped system clock cannot make a stage time negative. *)
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.elapsed_s t0)

let record t s = t.recorded <- s :: t.recorded
let stats t = List.rev t.recorded

let aggregate t =
  (* Association list keyed by (stage, pass), kept in first-seen order. *)
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let key = (s.stage, s.pass) in
      let a =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
            order := key :: !order;
            {
              a_stage = s.stage;
              a_pass = s.pass;
              runs = 0;
              changed_runs = 0;
              total_s = 0.0;
              delta = 0;
              total_bytes = 0;
            }
      in
      Hashtbl.replace tbl key
        {
          a with
          runs = a.runs + 1;
          changed_runs = (a.changed_runs + if s.changed then 1 else 0);
          total_s = a.total_s +. s.time_s;
          delta = a.delta + (s.items_after - s.items_before);
          total_bytes = a.total_bytes + s.bytes;
        })
    (stats t);
  List.rev_map (fun key -> Hashtbl.find tbl key) !order

let pp_table ppf t =
  let aggs = aggregate t in
  Format.fprintf ppf "pass statistics for %s@." t.cname;
  Format.fprintf ppf "%-10s %-14s %5s %5s %9s %7s %8s@." "stage" "pass" "runs"
    "chg" "time(ms)" "delta" "bytes";
  Format.fprintf ppf "%s@." (String.make 64 '-');
  List.iter
    (fun a ->
      Format.fprintf ppf "%-10s %-14s %5d %5d %9.3f %7d %8d@." a.a_stage
        a.a_pass a.runs a.changed_runs (a.total_s *. 1000.0) a.delta
        a.total_bytes)
    aggs;
  Format.fprintf ppf "%s@." (String.make 64 '-');
  let tot f = List.fold_left (fun acc a -> acc + f a) 0 aggs in
  Format.fprintf ppf "%-10s %-14s %5d %5d %9.3f %7d %8d@." "total" ""
    (tot (fun a -> a.runs))
    (tot (fun a -> a.changed_runs))
    (List.fold_left (fun acc a -> acc +. a.total_s) 0.0 aggs *. 1000.0)
    (tot (fun a -> a.delta))
    (tot (fun a -> a.total_bytes))

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"program\":\"%s\",\"summary\":[" (json_escape t.cname);
  List.iteri
    (fun i a ->
      if i > 0 then add ",";
      add
        "{\"stage\":\"%s\",\"pass\":\"%s\",\"runs\":%d,\"changed_runs\":%d,\"time_s\":%.6f,\"delta\":%d,\"bytes\":%d}"
        (json_escape a.a_stage) (json_escape a.a_pass) a.runs a.changed_runs
        a.total_s a.delta a.total_bytes)
    (aggregate t);
  add "],\"runs\":[";
  List.iteri
    (fun i s ->
      if i > 0 then add ",";
      add
        "{\"stage\":\"%s\",\"pass\":\"%s\",\"func\":\"%s\",\"time_s\":%.6f,\"before\":%d,\"after\":%d,\"bytes\":%d,\"changed\":%b}"
        (json_escape s.stage) (json_escape s.pass) (json_escape s.func)
        s.time_s s.items_before s.items_after s.bytes s.changed)
    (stats t);
  add "]}";
  Buffer.contents b
