type event = {
  name : string;
  cat : string;
  ph : [ `Complete | `Instant ];
  tid : int;  (* 1 = the main process; pool workers get 2, 3, ... *)
  ts_us : float;  (* start, microseconds since trace start *)
  dur_us : float;  (* 0 for instants *)
  args : (string * string) list;
}

type span = { sname : string; scat : string; st0 : float; sargs : (string * string) list; live : bool }

type events = event list  (* newest-first, like the collected buffer *)

let on = ref false
let t0 = ref 0.0
let events : event list ref = ref []  (* reverse chronological *)
let n_events = ref 0

(* Guards the collected-event buffer.  Never contended: pool
   workers are forked processes with their own buffer (see Lock).
   [on]/[t0] are read unlocked: were a recorder ever to race an
   enable/disable, a span near the edge would be kept or dropped, which
   start/stop semantics allow anyway. *)
let lock = Lock.create ()

let start () =
  Lock.protect lock (fun () ->
      events := [];
      n_events := 0;
      t0 := Clock.now_s ();
      on := true)

let stop () = on := false

let reset () =
  Lock.protect lock (fun () ->
      on := false;
      events := [];
      n_events := 0)

let us_since_start () = (Clock.now_s () -. !t0) *. 1e6

let push e =
  Lock.protect lock (fun () ->
      events := e :: !events;
      incr n_events)

let dead_span = { sname = ""; scat = ""; st0 = 0.0; sargs = []; live = false }

let begin_span ?(cat = "") ?(args = []) name =
  if not !on then dead_span
  else { sname = name; scat = cat; st0 = us_since_start (); sargs = args; live = true }

let end_span ?(args = []) s =
  if !on && s.live then
    push
      {
        name = s.sname;
        cat = s.scat;
        ph = `Complete;
        tid = 1;
        ts_us = s.st0;
        dur_us = Float.max 0.0 (us_since_start () -. s.st0);
        args = s.sargs @ args;
      }

let with_span ?cat ?args name f =
  if not !on then f ()
  else
    let s = begin_span ?cat ?args name in
    Fun.protect ~finally:(fun () -> end_span s) f

let instant ?(cat = "") ?(args = []) name =
  if !on then
    push
      {
        name;
        cat;
        ph = `Instant;
        tid = 1;
        ts_us = us_since_start ();
        dur_us = 0.0;
        args;
      }

let event_count () = !n_events

(* ---- cross-process stitching (see Pool) ----
   A forked worker inherits [on], [t0] and the monotonic clock state, so
   its timestamps stay on the parent's timeline; the parent re-tags the
   shipped events with the worker's id so Perfetto renders one track per
   worker. *)

let mark () = !n_events

let since m =
  Lock.protect lock (fun () ->
      let fresh = !n_events - m in
      let rec take n l =
        if n <= 0 then []
        else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl
      in
      take fresh !events)

let absorb ?(tid = 1) evs =
  if !on then
    (* [evs] is newest-first; push oldest-first so the buffer stays in
       reverse chronological order. *)
    List.iter (fun e -> push { e with tid }) (List.rev evs)

let event_json (e : event) =
  let base =
    [
      ("name", Jsonw.Str e.name);
      ("cat", Jsonw.Str (if e.cat = "" then "psd" else e.cat));
      ("pid", Jsonw.int 1);
      ("tid", Jsonw.int e.tid);
      ("ts", Jsonw.Float e.ts_us);
    ]
  in
  let phase =
    match e.ph with
    | `Complete -> [ ("ph", Jsonw.Str "X"); ("dur", Jsonw.Float e.dur_us) ]
    | `Instant -> [ ("ph", Jsonw.Str "i"); ("s", Jsonw.Str "t") ]
  in
  let args =
    match e.args with
    | [] -> []
    | kvs -> [ ("args", Jsonw.Obj (List.map (fun (k, v) -> (k, Jsonw.Str v)) kvs)) ]
  in
  Jsonw.Obj (base @ phase @ args)

let export_json () =
  Jsonw.to_string
    (Jsonw.Obj
       [
         ("traceEvents", Jsonw.List (List.rev_map event_json !events));
         ("displayTimeUnit", Jsonw.Str "ms");
       ])

let write file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (export_json ()))
