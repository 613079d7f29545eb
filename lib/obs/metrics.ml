type counter = { cname : string; mutable count : int64 }
type histogram = { hname : string; mutable values : float list; mutable n : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

(* Guards every registry mutation and consistent multi-value reads.
   Never contended: pool workers are forked processes with their
   own registry (see Lock). *)
let lock = Lock.create ()

let counter name =
  Lock.protect lock (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { cname = name; count = 0L } in
          Hashtbl.replace counters name c;
          c)

let incr ?(by = 1L) c =
  Lock.protect lock (fun () -> c.count <- Int64.add c.count by)

let counter_value c = c.count

let histogram name =
  Lock.protect lock (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h = { hname = name; values = []; n = 0 } in
          Hashtbl.replace histograms name h;
          h)

let observe h v =
  Lock.protect lock (fun () ->
      h.values <- v :: h.values;
      h.n <- h.n + 1)

let histogram_count h = h.n
let histogram_values h = List.rev h.values

let reset () =
  Lock.protect lock (fun () ->
      Hashtbl.iter (fun _ c -> c.count <- 0L) counters;
      Hashtbl.iter
        (fun _ h ->
          h.values <- [];
          h.n <- 0)
        histograms)

(* ---- snapshots: what a pool worker ships back to the parent ---- *)

type snapshot = {
  s_counters : (string * int64) list;
  s_histograms : (string * int * float list) list;
      (* name, observation count, and the values newest-first, like
         [histogram.n] and [histogram.values] *)
}

let snapshot () =
  Lock.protect lock (fun () ->
      {
        s_counters =
          Hashtbl.fold (fun k c acc -> (k, c.count) :: acc) counters [];
        s_histograms =
          (* The values list is immutable and only ever prepended to, so
             capturing the head is O(1) per histogram. *)
          Hashtbl.fold (fun k h acc -> (k, h.n, h.values) :: acc) histograms [];
      })

let rec take n l =
  if n <= 0 then [] else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl

let table_of bindings =
  let t = Hashtbl.create (List.length bindings) in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) bindings;
  t

(* A name registered after [since] ships even at zero, so the parent's
   registry ends up with the same names as a serial run.  O(names + new
   observations): the base's counts say how many values it had seen, so
   its lists are never walked. *)
let delta ~since =
  let base_c = table_of since.s_counters in
  let base_h =
    table_of (List.map (fun (k, n, _) -> (k, n)) since.s_histograms)
  in
  Lock.protect lock (fun () ->
      let s_counters =
        Hashtbl.fold
          (fun k c acc ->
            match Hashtbl.find_opt base_c k with
            | None -> (k, c.count) :: acc
            | Some base ->
                let d = Int64.sub c.count base in
                if Int64.equal d 0L then acc else (k, d) :: acc)
          counters []
      in
      let s_histograms =
        Hashtbl.fold
          (fun k h acc ->
            match Hashtbl.find_opt base_h k with
            | None -> (k, h.n, h.values) :: acc
            | Some n0 ->
                (* New observations are exactly the prefix the base has
                   not seen (prepend-only list, no reset in between). *)
                let fresh = h.n - n0 in
                if fresh <= 0 then acc
                else (k, fresh, take fresh h.values) :: acc)
          histograms []
      in
      { s_counters; s_histograms })

let merge s =
  (* [counter]/[histogram]/[incr]/[observe] each take the lock
     themselves; merging is not atomic as a whole, which is fine — the
     only concurrent readers are other merges and dumps, and totals are
     commutative. *)
  List.iter (fun (k, d) -> incr ~by:d (counter k)) s.s_counters;
  List.iter
    (fun (k, _, vs) ->
      let h = histogram k in
      (* [vs] is newest-first: replay it oldest-first, in the order the
         worker observed it. *)
      List.iter (observe h) (List.rev vs))
    s.s_histograms

(* ---- dumping ---- *)

let quantile sorted q =
  (* Nearest-rank on a sorted array; [q] in [0,1]. *)
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1 |> max 0))

let hist_summary values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let sum = Array.fold_left ( +. ) 0.0 a in
  Jsonw.Obj
    [
      ("count", Jsonw.int n);
      ("sum", Jsonw.Float sum);
      ("min", Jsonw.Float (if n = 0 then 0.0 else a.(0)));
      ("max", Jsonw.Float (if n = 0 then 0.0 else a.(n - 1)));
      ("mean", Jsonw.Float (if n = 0 then 0.0 else sum /. float_of_int n));
      ("p50", Jsonw.Float (quantile a 0.50));
      ("p90", Jsonw.Float (quantile a 0.90));
      ("p99", Jsonw.Float (quantile a 0.99));
    ]

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let dump () =
  (* Capture a consistent view under the lock, render outside it. *)
  let cs, hs =
    Lock.protect lock (fun () ->
        ( List.map
            (fun k -> (k, (Hashtbl.find counters k).count))
            (sorted_bindings counters),
          List.map
            (fun k -> (k, (Hashtbl.find histograms k).values))
            (sorted_bindings histograms) ))
  in
  Jsonw.Obj
    [
      ("counters", Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Int v)) cs));
      ( "histograms",
        Jsonw.Obj (List.map (fun (k, vs) -> (k, hist_summary vs)) hs) );
    ]

let dump_json () = Jsonw.to_string (dump ())
