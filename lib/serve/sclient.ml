(* The serve client: connection plumbing, a seeded load generator, and
   the serial oracle that keeps the daemon honest.

   The load generator replays a *deterministic* request trace — derived
   from a seed through the same `Rng.of_labels` stream discipline the
   compiler uses — so a CI smoke run and a local repro issue the exact
   same requests.  Every digest the daemon returns is checked against an
   in-process serial build of the same (workload, config, version)
   triple: the daemon batches, forks and caches, but a variant is a pure
   function of its triple, so any divergence is a bug, not noise. *)

let src_of fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX path -> "serve daemon at " ^ path
  | Unix.ADDR_INET (a, p) ->
      Printf.sprintf "serve daemon at %s:%d" (Unix.string_of_inet_addr a) p
  | exception Unix.Unix_error _ -> "serve daemon"

let connect_once (addr : Sdaemon.addr) =
  match addr with
  | Sdaemon.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd
  | Sdaemon.Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (inet, port))
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      fd

(* The daemon signals readiness by the socket accepting connections, so
   startup is a retry loop, not a sleep. *)
let connect ?(retry_for = 10.0) addr =
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec go () =
    match connect_once addr with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let rpc ?max_frame fd (req : Sproto.request) : Sproto.response =
  Sproto.write_all fd (Sproto.encode_request req);
  let src = src_of fd in
  match Sproto.read_frame ?max_frame ~src fd with
  | Some framed -> Sproto.response_of_frame ~src framed
  | None -> failwith (src ^ ": connection closed before reply")

let stats fd =
  match rpc fd (Sproto.Stats { id = 0 }) with
  | Sproto.Stats_reply s -> s
  | r ->
      failwith
        (Printf.sprintf "unexpected reply %d to Stats" (Sproto.response_id r))

let shutdown fd =
  match rpc fd (Sproto.Shutdown { id = 0 }) with
  | Sproto.Bye _ -> ()
  | r ->
      failwith
        (Printf.sprintf "unexpected reply %d to Shutdown" (Sproto.response_id r))

(* ---- seeded request traces ---- *)

(* A trace request re-visits version windows on purpose: revisits are
   where warm-path bugs (stale cache keys, eviction) would
   show up, and they are what a production rotation actually does. *)
let trace ~seed ~workloads ~config ~requests ~versions_per_request
    ~version_space ~want_images =
  let workloads = Array.of_list workloads in
  if Array.length workloads = 0 then
    invalid_arg "Sclient.trace: no workloads";
  List.init requests (fun i ->
      let rng =
        Rng.of_labels seed [ "serve-trace"; string_of_int i ]
      in
      let workload = Rng.choose rng workloads in
      let lo = Rng.int rng (max 1 (version_space - versions_per_request + 1)) in
      {
        Sproto.id = i + 1;
        workload;
        config;
        versions = (lo, lo + versions_per_request - 1);
        want_images;
      })

(* ---- the serial oracle ---- *)

(* Digest of each variant in [lo..hi], built in this process with no
   pool and no daemon — the ground truth the daemon must match. *)
let oracle_digests ~workload ~config ~versions:(lo, hi) =
  let w = Workloads.find workload in
  let config =
    match Config.of_spec config with
    | Ok c -> c
    | Error e -> failwith e
  in
  let compiled = Driver.compile_cached ~name:w.Workload.name w.Workload.source in
  let profile = Driver.train_cached compiled ~args:w.Workload.train_args in
  List.init (hi - lo + 1) (fun i ->
      let image, _ =
        Driver.diversify_linked compiled ~config ~profile ~version:(lo + i)
      in
      Digest.to_hex (Digest.string image.Link.text))

(* ---- load replay ---- *)

type report = {
  requests : int;
  built : int;  (** requests answered [Built] *)
  variants : int;
  shed : int;
  errors : int;
  lowering_runs : int;  (** summed over [Built] replies *)
  store_hits : int;
  store_misses : int;
  digest_mismatches : int;  (** vs the serial oracle, when verified *)
  wall_s : float;
}

let replay ?(verify = false) ?on_built ?max_frame fd reqs =
  let t0 = Unix.gettimeofday () in
  let built = ref 0
  and variants = ref 0
  and shed = ref 0
  and errors = ref 0
  and lowering = ref 0
  and hits = ref 0
  and misses = ref 0
  and mismatches = ref 0 in
  List.iter
    (fun (req : Sproto.build_req) ->
      match rpc ?max_frame fd (Sproto.Build req) with
      | Sproto.Built b ->
          (match on_built with Some f -> f b | None -> ());
          incr built;
          variants := !variants + List.length b.Sproto.variants;
          lowering := !lowering + b.Sproto.lowering_runs;
          hits := !hits + b.Sproto.store_hits;
          misses := !misses + b.Sproto.store_misses;
          if verify then begin
            let expect =
              oracle_digests ~workload:req.Sproto.workload
                ~config:req.Sproto.config ~versions:req.Sproto.versions
            in
            let got =
              List.map (fun (v : Sproto.variant) -> v.Sproto.digest)
                b.Sproto.variants
            in
            if got <> expect then incr mismatches;
            (* An image payload must be loadable and must hash to the
               digest the daemon claimed for it. *)
            List.iter
              (fun (v : Sproto.variant) ->
                match v.Sproto.image with
                | None -> ()
                | Some bytes ->
                    let image =
                      Sproto.image_of_string ~src:"serve reply" bytes
                    in
                    if
                      Digest.to_hex (Digest.string image.Link.text)
                      <> v.Sproto.digest
                    then incr mismatches)
              b.Sproto.variants
          end
      | Sproto.Shed _ -> incr shed
      | Sproto.Error_reply _ -> incr errors
      | Sproto.Stats_reply _ | Sproto.Bye _ ->
          failwith "unexpected control reply to Build")
    reqs;
  {
    requests = List.length reqs;
    built = !built;
    variants = !variants;
    shed = !shed;
    errors = !errors;
    lowering_runs = !lowering;
    store_hits = !hits;
    store_misses = !misses;
    digest_mismatches = !mismatches;
    wall_s = Unix.gettimeofday () -. t0;
  }
