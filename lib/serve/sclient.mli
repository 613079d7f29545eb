(** The serve client: connection plumbing, a seeded load generator, and
    the serial oracle the daemon's digests are verified against. *)

val connect : ?retry_for:float -> Sdaemon.addr -> Unix.file_descr
(** Connect, retrying [ECONNREFUSED]/[ENOENT] for up to [retry_for]
    seconds (default 10) — the daemon signals readiness by accepting.
    The wait between attempts starts at 1 ms and doubles up to 50 ms.
    Raises the final [Unix.Unix_error] on exhaustion. *)

val rpc : ?max_frame:int -> Unix.file_descr -> Sproto.request -> Sproto.response
(** One blocking request/response round trip.  Raises [Failure] on a
    malformed reply or a connection closed before the reply. *)

val stats : Unix.file_descr -> Sproto.stats
val shutdown : Unix.file_descr -> unit

val trace :
  seed:int64 ->
  workloads:string list ->
  config:string ->
  requests:int ->
  versions_per_request:int ->
  version_space:int ->
  want_images:bool ->
  Sproto.build_req list
(** A deterministic request trace: request [i] draws its workload and
    its version window (a [versions_per_request]-wide slice of
    [0..version_space-1]) from [Rng.of_labels seed ["serve-trace"; i]].
    Same seed, same trace — in CI and in a local repro. *)

val oracle_digests :
  workload:string -> config:string -> versions:int * int -> string list
(** Serial in-process ground truth: the hex text digest of every variant
    in the (inclusive) version range, built with no pool and no
    daemon. *)

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

val replay :
  ?verify:bool ->
  ?on_built:(Sproto.built -> unit) ->
  ?max_frame:int ->
  Unix.file_descr ->
  Sproto.build_req list ->
  report
(** Send each request in order and tally the replies; [on_built] sees
    each [Built] reply (e.g. to dump images).  With [verify],
    every [Built] reply's digests are checked against
    {!oracle_digests}, and any returned image payload is decoded and
    re-hashed against its claimed digest. *)
