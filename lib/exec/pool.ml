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

exception Nested

let outcome_to_string = function
  | Done _ -> "done"
  | Failed msg -> "failed: " ^ msg
  | Crashed msg -> "crashed: " ^ msg

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

let resolve = function
  | Auto -> max 1 (Par_compat.recommended_worker_count ())
  | Jobs n -> max 1 n

(* One pool at a time: grids parallelize at a single level.  Worker
   children inherit a positive depth, so a task calling [run] is caught
   in the child too. *)
let depth = ref 0

let run_task f =
  match f () with
  | v -> Done v
  | exception Nested -> Failed "nested Pool.run rejected"
  | exception e -> Failed (Printexc.to_string e)

(* ---------------- serial backend ---------------- *)

let run_serial tasks = Array.to_list (Array.map run_task tasks)

(* ---------------- fork backend ---------------- *)

(* Worker -> parent: one {!Frame} stream record per finished task,
   marshalled once — the outcome and the telemetry recorded while it
   ran.  Explicit framing (rather than Marshal.from_channel) lets the
   parent multiplex readable pipes with select and never block on a
   half-arrived message.  The pipe joins a process to a fork of itself,
   so its bytes are trusted and carry no container.  No task index
   travels: a worker runs its share in order, so each record answers
   the head of the parent's [pending] list for that worker. *)
type 'a wire = 'a outcome * Metrics.snapshot * Trace.events

let flush_std () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  (try flush stdout with Sys_error _ -> ());
  try flush stderr with Sys_error _ -> ()

(* The worker: run my share of tasks in order, shipping each result with
   the metrics delta and trace spans recorded while it ran. *)
let worker_main ~(tasks : (unit -> 'a) array) ~indices wfd =
  let marshal (msg : 'a wire) = Frame.prefixed (Marshal.to_string msg []) in
  let m_base = ref (Metrics.snapshot ()) in
  let t_base = ref (Trace.mark ()) in
  List.iter
    (fun i ->
      let outcome = run_task tasks.(i) in
      let snap = Metrics.delta ~since:!m_base in
      let events = Trace.since !t_base in
      m_base := Metrics.snapshot ();
      t_base := Trace.mark ();
      Frame.write_all wfd
        (match marshal (outcome, snap, events) with
        | wire -> wire
        | exception e ->
            (* e.g. a task result containing a closure *)
            marshal
              ( Failed ("unmarshalable task result: " ^ Printexc.to_string e),
                snap,
                events )))
    indices

type worker = {
  slot : int;  (* stable worker id; trace track is slot + 2 *)
  pid : int;
  fd : Unix.file_descr;
  reader : Frame.reader;  (* bytes received, not yet parsed into frames *)
  mutable pending : int list;  (* assigned indices with no result yet *)
}

let spawn_worker ~tasks ~slot indices =
  (* Anything buffered here would be duplicated by the child's stdio,
     and the child skips at_exit (Unix._exit), so flush both ways. *)
  flush_std ();
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (try
         Unix.close rfd;
         worker_main ~tasks ~indices wfd;
         Unix.close wfd
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wfd;
      {
        slot;
        pid;
        fd = rfd;
        (* any u32 length: the trusted pipe needs no cap of its own *)
        reader = Frame.reader ~max_frame:0xFFFF_FFFF ~what:"pool" ~src:"worker";
        pending = indices;
      }

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "worker exited with status %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "worker killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "worker stopped by signal %d" n

(* Handle every complete frame sitting in [w.reader]. *)
let rec process_frames w handle =
  match Frame.next_frame w.reader with
  | None -> ()
  | Some frame ->
      handle (Marshal.from_string frame 0);
      process_frames w handle

let run_forked ~jobs (tasks : (unit -> 'a) array) =
  let n = Array.length tasks in
  let results : 'a outcome option array = Array.make n None in
  (* Deterministic stride assignment: worker k gets tasks k, k+jobs, ...
     Assignment never affects results (tasks are independent and
     individually seeded); it only shapes load balance. *)
  let stride k = List.filter (fun i -> i mod jobs = k) (List.init n Fun.id) in
  let workers = ref [] in
  let spawn ~slot indices =
    workers := spawn_worker ~tasks ~slot indices :: !workers
  in
  let handle w ((outcome, snap, events) : 'a wire) =
    match w.pending with
    | [] -> assert false (* one record per assigned task *)
    | i :: rest ->
        results.(i) <- Some outcome;
        Metrics.merge snap;
        Trace.absorb ~tid:(w.slot + 2) events;
        w.pending <- rest
  in
  (* A worker hit EOF after its trailing frames were handled: reap it
     and, if it died mid-share, the head of its share is the task it
     died under — record that task as Crashed and hand the rest to a
     replacement. *)
  let reap w =
    Unix.close w.fd;
    let status =
      match Unix.waitpid [] w.pid with
      | _, status -> status_to_string status
      | exception Unix.Unix_error _ -> "worker unreachable"
    in
    match w.pending with
    | [] -> ()
    | fatal :: rest ->
        results.(fatal) <- Some (Crashed status);
        if rest <> [] then spawn ~slot:w.slot rest
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
        match Unix.select fds [] [] (-1.0) with
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
                  Frame.feed w.reader chunk r;
                  process_frames w (handle w)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
        ready
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

(* Fork wherever it exists: it is what provides crash containment.
   Without it (a non-Unix build) every run is serial. *)
let run ?(jobs = Auto) tasks =
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
        if j <= 1 || not Sys.unix then run_serial tasks
        else run_forked ~jobs:j tasks)
  end

let map ?jobs f items = run ?jobs (List.map (fun x () -> f x) items)
