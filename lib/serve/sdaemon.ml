(* The variant-serving daemon: diversity as a service.

   One process owns the warm artifact state — the
   content-addressed `Store`, the driver's program-level memos, trained
   profiles — and serves freshly-seeded variant images over a Unix or
   TCP socket.  The event loop is deliberately simple and deterministic:

     1. select over the listener and every live connection;
     2. read whatever arrived, slice it into frames (`Sproto.reader`),
        decode requests;
     3. admit each Build into a *bounded* queue — a request that
        arrives when the queue is full is shed immediately with a
        `Shed` response, never silently dropped and never buffered
        without bound;
     4. drain the queue in batches: requests that waited longer than
        the per-request timeout are shed, the rest are prepared
        serially in the parent (compile + train through the driver's
        caches — this is where a cold store pays its lowering runs and
        a warm store hits), and the per-version variant builds of the
        whole batch are fanned out through one `Exec.Pool` run.

   Variants are a pure function of (workload, config, version), so
   nothing observable depends on batching, worker count, or request
   interleaving — the serve-smoke and the bench verify returned digests
   against a serial oracle at every -j.

   Error containment: a malformed frame answers `Error_reply` on the
   same connection (framing is length-prefixed, so one corrupt frame
   does not poison the next); an oversized length claim closes the
   connection (framing is lost); a dead peer's EPIPE marks the
   connection closed and the loop carries on. *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_spec spec =
  match String.split_on_char ':' spec with
  | [ "tcp"; host; port ] -> (
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad tcp port in %S" spec))
  | [ path ] when path <> "" -> Ok (Unix_sock path)
  | _ ->
      Error
        (Printf.sprintf "bad socket spec %S (use a unix path or tcp:HOST:PORT)"
           spec)

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

type cfg = {
  addr : addr;
  jobs : Pool.jobs;  (** workers for the per-batch variant fan-out *)
  queue_cap : int;  (** pending Builds beyond this are shed on arrival *)
  batch : int;  (** max Builds prepared + fanned out per pool run *)
  timeout_s : float;
      (** max queue wait before a Build is shed; [<= 0.] disables *)
  max_frame : int;
  max_variants : int;  (** per-request version-range cap *)
  log : string -> unit;
}

let default_cfg addr =
  {
    addr;
    jobs = Pool.Jobs 1;
    queue_cap = 64;
    batch = 16;
    timeout_s = 30.0;
    max_frame = Sproto.default_max_frame;
    max_variants = 4096;
    log = ignore;
  }

type conn = {
  fd : Unix.file_descr;
  peer : string;
  reader : Sproto.reader;
  mutable alive : bool;
}

type pending = {
  preq : Sproto.build_req;
  pconn : conn;
  enqueued_at : float;
  depth_at_admit : int;
}

type state = {
  cfg : cfg;
  listen_fd : Unix.file_descr;
  queue : pending Queue.t;
  mutable conns : conn list;
  mutable running : bool;
}

let counter_value name = Metrics.counter_value (Metrics.counter name)

let send st conn (resp : Sproto.response) =
  if conn.alive then
    try Sproto.write_all conn.fd (Sproto.encode_response resp)
    with Unix.Unix_error _ | Sys_error _ ->
      st.cfg.log (Printf.sprintf "%s: write failed, closing" conn.peer);
      conn.alive <- false

let shed st conn ~id ~reason =
  Metrics.incr (Metrics.counter "serve.shed");
  st.cfg.log (Printf.sprintf "shed request %d: %s" id reason);
  send st conn (Sproto.Shed { id; reason })

let error_reply st conn ~id ~message =
  Metrics.incr (Metrics.counter "serve.errors");
  st.cfg.log (Printf.sprintf "error on request %d: %s" id message);
  send st conn (Sproto.Error_reply { id; message })

(* ---- request admission ---- *)

let stats_reply ~id : Sproto.response =
  Sproto.Stats_reply
    {
      id;
      requests = counter_value "serve.requests";
      built_variants = counter_value "serve.built_variants";
      shed = counter_value "serve.shed";
      errors = counter_value "serve.errors";
      store_entries = Memo.length Store.objects;
      metrics_json = Metrics.dump_json ();
    }

let admit st conn (req : Sproto.request) =
  match req with
  | Sproto.Stats { id } -> send st conn (stats_reply ~id)
  | Sproto.Shutdown { id } ->
      st.cfg.log "shutdown requested";
      send st conn (Sproto.Bye { id });
      st.running <- false
  | Sproto.Build b ->
      Metrics.incr (Metrics.counter "serve.requests");
      let depth = Queue.length st.queue in
      Metrics.observe (Metrics.histogram "serve.queue_depth") (float_of_int depth);
      if depth >= st.cfg.queue_cap then
        shed st conn ~id:b.Sproto.id
          ~reason:
            (Printf.sprintf "queue full (depth %d >= cap %d)" depth
               st.cfg.queue_cap)
      else
        Queue.add
          {
            preq = b;
            pconn = conn;
            enqueued_at = Unix.gettimeofday ();
            depth_at_admit = depth;
          }
          st.queue

(* ---- batch processing ---- *)

type prep = {
  pend : pending;
  workload : Workload.t;
  config : Config.t;
  compiled : Driver.compiled;
  profile : Profile.t;
  lowering_runs : int;
  store_hits : int;
  store_misses : int;
}

let validate (b : Sproto.build_req) ~max_variants =
  let lo, hi = b.Sproto.versions in
  if lo < 0 || hi < lo then
    Error (Printf.sprintf "bad version range %d..%d" lo hi)
  else if hi - lo + 1 > max_variants then
    Error
      (Printf.sprintf "version range %d..%d asks for %d variants (cap %d)" lo
         hi (hi - lo + 1) max_variants)
  else
    match Workloads.find b.Sproto.workload with
    | w -> (
        match Config.of_spec b.Sproto.config with
        | Ok c -> Ok (w, c)
        | Error e -> Error e)
    | exception Not_found ->
        Error (Printf.sprintf "unknown workload %S" b.Sproto.workload)

(* Compile + train through the driver's caches, charging the stage and
   store work this specific request triggered: the first (cold) request
   for a workload pays its lowering runs, every warm request reads 0 —
   the property the serve-smoke and the CI gate assert. *)
let prepare st (p : pending) =
  match validate p.preq ~max_variants:st.cfg.max_variants with
  | Error msg -> Error (p, msg)
  | Ok (w, config) -> (
      let isel0 = counter_value "machine.isel.runs" in
      let hit0 = counter_value "obj.store.hit" in
      let miss0 = counter_value "obj.store.miss" in
      try
        let compiled =
          Driver.compile_cached ~name:w.Workload.name w.Workload.source
        in
        let profile =
          Driver.train_cached compiled ~args:w.Workload.train_args
        in
        Ok
          {
            pend = p;
            workload = w;
            config;
            compiled;
            profile;
            lowering_runs =
              Int64.to_int
                (Int64.sub (counter_value "machine.isel.runs") isel0);
            store_hits =
              Int64.to_int (Int64.sub (counter_value "obj.store.hit") hit0);
            store_misses =
              Int64.to_int (Int64.sub (counter_value "obj.store.miss") miss0);
          }
      with e -> Error (p, Printexc.to_string e))

let build_variant ~(prep : prep) ~want_images version : Sproto.variant =
  let image, _ =
    Driver.diversify_linked prep.compiled ~config:prep.config
      ~profile:prep.profile ~version
  in
  {
    Sproto.version;
    digest = Digest.to_hex (Digest.string image.Link.text);
    image = (if want_images then Some (Sproto.image_to_string image) else None);
  }

let process_batch st (batch : pending list) =
  Trace.with_span "serve.batch"
    ~args:[ ("requests", string_of_int (List.length batch)) ]
    (fun () ->
      (* Shed what already waited too long: under overload the bounded
         queue fills and the oldest entries go stale together. *)
      let now = Unix.gettimeofday () in
      let live =
        List.filter
          (fun p ->
            let waited = now -. p.enqueued_at in
            if st.cfg.timeout_s > 0.0 && waited > st.cfg.timeout_s then begin
              shed st p.pconn ~id:p.preq.Sproto.id
                ~reason:
                  (Printf.sprintf "timed out in queue (waited %.3fs > %.3fs)"
                     waited st.cfg.timeout_s);
              false
            end
            else true)
          batch
      in
      let prepared = List.map (prepare st) live in
      List.iter
        (function
          | Error (p, msg) ->
              error_reply st p.pconn ~id:p.preq.Sproto.id ~message:msg
          | Ok _ -> ())
        prepared;
      let preps = List.filter_map Result.to_option prepared in
      (* One pool run for the whole batch: every (request, version) is an
         independent task, so a batch of small requests fills the workers
         as well as one big one. *)
      let tasks =
        List.concat_map
          (fun prep ->
            let lo, hi = prep.pend.preq.Sproto.versions in
            let want_images = prep.pend.preq.Sproto.want_images in
            List.init
              (hi - lo + 1)
              (fun i () -> build_variant ~prep ~want_images (lo + i)))
          preps
      in
      let outcomes =
        if tasks = [] then [] else Pool.run ~jobs:st.cfg.jobs tasks
      in
      (* Hand each request its slice of the outcomes, in order. *)
      let rec take n = function
        | rest when n = 0 -> ([], rest)
        | [] -> failwith "Sdaemon.process_batch: outcome underrun"
        | o :: rest ->
            let taken, left = take (n - 1) rest in
            (o :: taken, left)
      in
      let remaining = ref outcomes in
      List.iter
        (fun prep ->
          let lo, hi = prep.pend.preq.Sproto.versions in
          let mine, rest = take (hi - lo + 1) !remaining in
          remaining := rest;
          let failed =
            List.find_map
              (function Pool.Done _ -> None | o -> Some (Pool.outcome_to_string o))
              mine
          in
          match failed with
          | Some msg ->
              error_reply st prep.pend.pconn ~id:prep.pend.preq.Sproto.id
                ~message:("variant build failed: " ^ msg)
          | None ->
              let variants =
                List.map
                  (function Pool.Done v -> v | _ -> assert false)
                  mine
              in
              Metrics.incr
                ~by:(Int64.of_int (List.length variants))
                (Metrics.counter "serve.built_variants");
              send st prep.pend.pconn
                (Sproto.Built
                   {
                     id = prep.pend.preq.Sproto.id;
                     workload = prep.workload.Workload.name;
                     config = Config.name prep.config;
                     variants;
                     lowering_runs = prep.lowering_runs;
                     store_hits = prep.store_hits;
                     store_misses = prep.store_misses;
                     queue_depth = prep.pend.depth_at_admit;
                   }))
        preps)

let drain st =
  while not (Queue.is_empty st.queue) do
    let batch = ref [] in
    while not (Queue.is_empty st.queue) && List.length !batch < st.cfg.batch do
      batch := Queue.pop st.queue :: !batch
    done;
    process_batch st (List.rev !batch)
  done

(* ---- the event loop ---- *)

let read_chunk = Bytes.create 65536

let service_conn st conn =
  let n =
    try Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk)
    with Unix.Unix_error _ -> 0
  in
  if n = 0 then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end
  else begin
    Sproto.feed conn.reader read_chunk n;
    let rec frames () =
      match Sproto.next_frame conn.reader with
      | None -> ()
      | Some framed ->
          (match Sproto.request_of_frame ~src:conn.peer framed with
          | req -> admit st conn req
          | exception Failure msg ->
              (* Framing is intact (the length prefix delimited the bad
                 frame), so answer and keep the connection. *)
              error_reply st conn ~id:(-1) ~message:msg);
          if st.running then frames ()
      | exception Failure msg ->
          (* Oversized claim: the stream can no longer be framed. *)
          error_reply st conn ~id:(-1) ~message:msg;
          conn.alive <- false;
          (try Unix.close conn.fd with Unix.Unix_error _ -> ())
    in
    frames ()
  end

let listen_socket cfg =
  match cfg.addr with
  | Unix_sock path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 64;
      fd

let run cfg =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let st =
    {
      cfg;
      listen_fd = listen_socket cfg;
      queue = Queue.create ();
      conns = [];
      running = true;
    }
  in
  cfg.log (Printf.sprintf "listening on %s" (addr_to_string cfg.addr));
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
      List.iter
        (fun c ->
          if c.alive then try Unix.close c.fd with Unix.Unix_error _ -> ())
        st.conns;
      match cfg.addr with
      | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
      | Tcp _ -> ())
    (fun () ->
      while st.running do
        st.conns <- List.filter (fun c -> c.alive) st.conns;
        let fds = st.listen_fd :: List.map (fun c -> c.fd) st.conns in
        let ready, _, _ =
          try Unix.select fds [] [] 0.5
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if List.mem st.listen_fd ready then begin
          match Unix.accept st.listen_fd with
          | fd, sockaddr ->
              let peer =
                match sockaddr with
                | Unix.ADDR_UNIX _ -> "client"
                | Unix.ADDR_INET (a, p) ->
                    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
              in
              Metrics.incr (Metrics.counter "serve.connections");
              st.conns <-
                {
                  fd;
                  peer;
                  reader =
                    Sproto.reader ~max_frame:cfg.max_frame ~src:peer ();
                  alive = true;
                }
                :: st.conns
          | exception Unix.Unix_error _ -> ()
        end;
        List.iter
          (fun c -> if c.alive && List.mem c.fd ready then service_conn st c)
          st.conns;
        drain st
      done;
      (* Shutdown drains what was admitted before the Bye. *)
      drain st)
