(* See pool.mli for the contract.  Layout of this file:
     - outcome/jobs plumbing and the shared per-task runner
     - the serial backend (also the reference semantics)
     - the fork backend: wire protocol, worker loop, parent multiplexer
     - the public entry points *)

type jobs = Auto | Jobs of int

type 'a outcome =
  | Done of 'a
  | Failed of string
  | Crashed of string
  | Timed_out

exception Nested

let outcome_to_string = function
  | Done _ -> "done"
  | Failed msg -> "failed: " ^ msg
  | Crashed msg -> "crashed: " ^ msg
  | Timed_out -> "timed out"

let auto_jobs () = max 1 (Par_compat.recommended_worker_count ())

let jobs_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" -> Ok Auto
  | s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok (Jobs n)
      | _ -> Error (Printf.sprintf "bad jobs value %S (want auto or N >= 1)" s))

let jobs_to_string = function
  | Auto -> "auto"
  | Jobs n -> string_of_int n

let resolve = function Auto -> auto_jobs () | Jobs n -> max 1 n

(* One pool at a time: grids parallelize at a single level.  Worker
   children inherit a positive depth, so a task calling [run] is caught
   in the child too. *)
let depth = ref 0

exception Task_timeout

(* Run [f] with a per-task wall-clock limit, delivered as SIGALRM by an
   interval timer and turned into an exception.  OCaml delivers signals
   at allocation points, which every real task here reaches constantly;
   a task that doesn't is caught by the parent's kill backstop. *)
let with_alarm timeout_s f =
  match timeout_s with
  | None -> f ()
  | Some _ when not Sys.unix -> f ()
  | Some t ->
      let old =
        Sys.signal Sys.sigalrm
          (Sys.Signal_handle (fun _ -> raise Task_timeout))
      in
      let clear () =
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_value = 0.0; it_interval = 0.0 });
        Sys.set_signal Sys.sigalrm old
      in
      Fun.protect ~finally:clear (fun () ->
          ignore
            (Unix.setitimer Unix.ITIMER_REAL
               { Unix.it_value = t; it_interval = 0.0 });
          f ())

let run_task ~timeout_s f =
  match with_alarm timeout_s f with
  | v -> Done v
  | exception Task_timeout -> Timed_out
  | exception Nested -> Failed "nested Pool.run rejected"
  | exception e -> Failed (Printexc.to_string e)

(* ---------------- serial backend ---------------- *)

let run_serial ~timeout_s tasks =
  Array.to_list (Array.map (fun f -> run_task ~timeout_s f) tasks)

(* ---------------- fork backend ---------------- *)

(* Worker -> parent messages.  Results and telemetry ride as nested
   marshal blobs so the outer [wire] type stays monomorphic. *)
type wire =
  | W_start of int  (* about to run task [i] *)
  | W_done of int * string * string
      (* task [i]: marshalled ['a outcome], marshalled
         [Metrics.snapshot * Trace.events] recorded while it ran *)

(* Frames on the pipe: 8-byte big-endian length, then the marshalled
   message.  Explicit framing (rather than Marshal.from_channel) lets the
   parent multiplex readable pipes with select and never block on a
   half-arrived message. *)

let rec write_all fd b pos len =
  if len > 0 then
    match Unix.write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b pos len

let write_frame fd payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int64_be b 0 (Int64.of_int len);
  Bytes.blit_string payload 0 b 8 len;
  write_all fd b 0 (8 + len)

let flush_std () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  (try flush stdout with Sys_error _ -> ());
  try flush stderr with Sys_error _ -> ()

(* The worker: run my share of tasks in order, shipping each result with
   the metrics delta and trace spans recorded while it ran. *)
let worker_main ~timeout_s ~(tasks : (unit -> 'a) array) ~indices wfd =
  let send msg = write_frame wfd (Marshal.to_string (msg : wire) []) in
  let m_base = ref (Metrics.snapshot ()) in
  let t_base = ref (Trace.mark ()) in
  List.iter
    (fun i ->
      send (W_start i);
      let outcome = run_task ~timeout_s tasks.(i) in
      let blob =
        match Marshal.to_string (outcome : 'a outcome) [] with
        | b -> b
        | exception e ->
            (* e.g. a task result containing a closure *)
            Marshal.to_string
              (Failed ("unmarshalable task result: " ^ Printexc.to_string e)
                : 'a outcome)
              []
      in
      let obs =
        Marshal.to_string (Metrics.delta ~since:!m_base, Trace.since !t_base) []
      in
      m_base := Metrics.snapshot ();
      t_base := Trace.mark ();
      send (W_done (i, blob, obs)))
    indices

type worker = {
  slot : int;  (* stable worker id; trace track is slot + 2 *)
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes received, not yet parsed into frames *)
  mutable pending : int list;  (* assigned indices with no result yet *)
  mutable current : int option;  (* started but not finished *)
  mutable started_at : float;
  mutable kill_mark : int option;  (* task we killed the worker over *)
}

let spawn_worker ~timeout_s ~tasks ~slot indices =
  (* Anything buffered here would be duplicated by the child's stdio,
     and the child skips at_exit (Unix._exit), so flush both ways. *)
  flush_std ();
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (try
         Unix.close rfd;
         worker_main ~timeout_s ~tasks ~indices wfd;
         Unix.close wfd
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wfd;
      {
        slot;
        pid;
        fd = rfd;
        buf = Buffer.create 4096;
        pending = indices;
        current = None;
        started_at = Unix.gettimeofday ();
        kill_mark = None;
      }

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "worker exited with status %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "worker killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "worker stopped by signal %d" n

(* Parse every complete frame sitting in [w.buf]. *)
let process_frames w handle =
  let b = Buffer.contents w.buf in
  let len = String.length b in
  let pos = ref 0 in
  let progressing = ref true in
  while !progressing do
    if len - !pos >= 8 then begin
      let flen = Int64.to_int (String.get_int64_be b !pos) in
      if len - !pos - 8 >= flen then begin
        handle (Marshal.from_string (String.sub b (!pos + 8) flen) 0 : wire);
        pos := !pos + 8 + flen
      end
      else progressing := false
    end
    else progressing := false
  done;
  if !pos > 0 then begin
    let rest = String.sub b !pos (len - !pos) in
    Buffer.clear w.buf;
    Buffer.add_string w.buf rest
  end

let run_forked ~timeout_s ~jobs (tasks : (unit -> 'a) array) =
  let n = Array.length tasks in
  let results : 'a outcome option array = Array.make n None in
  (* Deterministic stride assignment: worker k gets tasks k, k+jobs, ...
     Assignment never affects results (tasks are independent and
     individually seeded); it only shapes load balance. *)
  let stride k = List.filter (fun i -> i mod jobs = k) (List.init n Fun.id) in
  let workers = ref [] in
  let spawn ~slot indices =
    workers := spawn_worker ~timeout_s ~tasks ~slot indices :: !workers
  in
  let handle w = function
    | W_start i ->
        w.current <- Some i;
        w.started_at <- Unix.gettimeofday ()
    | W_done (i, blob, obs) ->
        results.(i) <- Some (Marshal.from_string blob 0 : 'a outcome);
        (let snap, events =
           (Marshal.from_string obs 0 : Metrics.snapshot * Trace.events)
         in
         Metrics.merge snap;
         Trace.absorb ~tid:(w.slot + 2) events);
        w.current <- None;
        w.pending <- List.filter (fun j -> j <> i) w.pending
  in
  (* A worker hit EOF: reap it and, if it died mid-share, record the
     fatal task's outcome and hand the rest of its share to a
     replacement.  A task the parent killed over its deadline reports
     Timed_out; any other death is Crashed. *)
  let reap w =
    Unix.close w.fd;
    let status =
      match Unix.waitpid [] w.pid with
      | _, status -> status_to_string status
      | exception Unix.Unix_error _ -> "worker unreachable"
    in
    if w.pending <> [] then begin
      match w.kill_mark with
      | Some i when not (List.mem i w.pending) ->
          (* We killed it over task [i], but [i] had in fact finished just
             before the kill landed: nothing failed, hand the rest on. *)
          spawn ~slot:w.slot w.pending
      | km ->
          let fatal, outcome =
            match km with
            | Some i -> (i, Timed_out)
            | None -> (
                match w.current with
                | Some i -> (i, Crashed status)
                | None ->
                    (List.hd w.pending, Crashed (status ^ " between tasks")))
          in
          results.(fatal) <- Some outcome;
          (match List.filter (fun j -> j <> fatal) w.pending with
          | [] -> ()
          | rest -> spawn ~slot:w.slot rest)
    end
  in
  let watchdog () =
    match timeout_s with
    | None -> ()
    | Some t ->
        let deadline = t +. Float.max 1.0 (0.5 *. t) in
        let now = Unix.gettimeofday () in
        List.iter
          (fun w ->
            match w.current with
            | Some i
              when w.kill_mark = None && now -. w.started_at > deadline ->
                (* The worker's own alarm should have fired; it is wedged
                   somewhere signals cannot reach.  Kill it. *)
                w.kill_mark <- Some i;
                (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
            | _ -> ())
          !workers
  in
  let cleanup () =
    (* Only on an exceptional exit: don't leak children or zombies. *)
    List.iter
      (fun w ->
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.close w.fd with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ())
      !workers
  in
  match
    for k = 0 to jobs - 1 do
      match stride k with [] -> () | indices -> spawn ~slot:k indices
    done;
    let chunk = Bytes.create 65536 in
    while !workers <> [] do
      let fds = List.map (fun w -> w.fd) !workers in
      let ready, _, _ =
        match Unix.select fds [] [] 0.5 with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun fd ->
          match List.find_opt (fun w -> w.fd == fd) !workers with
          | None -> ()
          | Some w -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                  (* EOF: parse any complete tail frames, then reap. *)
                  process_frames w (handle w);
                  workers := List.filter (fun x -> x != w) !workers;
                  reap w
              | r ->
                  Buffer.add_subbytes w.buf chunk 0 r;
                  process_frames w (handle w)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
        ready;
      watchdog ()
    done
  with
  | () ->
      Array.to_list
        (Array.map
           (function
             | Some o -> o
             | None -> Failed "pool: task result lost")
           results)
  | exception e ->
      cleanup ();
      raise e

(* ---------------- entry points ---------------- *)

(* Fork wherever it exists: it is what provides crash containment and
   kill-based timeouts.  Without it (a non-Unix build) every run is
   serial. *)
let run ?timeout_s ?(jobs = Auto) tasks =
  if !depth > 0 then raise Nested;
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    incr depth;
    Fun.protect
      ~finally:(fun () -> Stdlib.decr depth)
      (fun () ->
        let j = min n (resolve jobs) in
        if j <= 1 || not Sys.unix then run_serial ~timeout_s tasks
        else run_forked ~timeout_s ~jobs:j tasks)
  end

let map ?timeout_s ?jobs f items =
  run ?timeout_s ?jobs (List.map (fun x () -> f x) items)

let backend_name () = if Sys.unix then "fork" else "serial"
