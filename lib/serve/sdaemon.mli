(** The variant-serving daemon.

    One long-running process owns the warm lowering state — the
    content-addressed {!Store}, the driver's program-level memos, the
    trained profiles — and answers {!Sproto.Build} requests with
    freshly-seeded variant images.  Requests are admitted into a
    {e bounded} queue (arrivals beyond [queue_cap] are shed with a
    {!Sproto.Shed} response, never buffered without bound), drained in
    batches, prepared serially through the driver caches, and fanned out
    per-version through one {!Pool.run} per batch.

    Variants are a pure function of (workload, config, version): digests
    are byte-identical to an in-process serial build at every [-j], a
    property the serve smoke test and the bench verify against a serial
    oracle.

    Metrics: [serve.requests], [serve.built_variants], [serve.shed],
    [serve.errors], [serve.connections] (counters),
    [serve.queue_depth] (histogram, observed at each admission), plus
    the store's [obj.store.hit/miss/evict].  Each batch runs inside a
    ["serve.batch"] trace span. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_spec : string -> (addr, string) result
(** ["tcp:HOST:PORT"], or any other non-empty string as a Unix-domain
    socket path. *)

val addr_to_string : addr -> string

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

val default_cfg : addr -> cfg
(** jobs 1, queue cap 64, batch 16, 30 s timeout, 64 MiB frames, 4096
    variants per request, silent log. *)

val run : cfg -> unit
(** Bind, listen (replacing a stale Unix socket file), log the address,
    and serve until a {!Sproto.Shutdown} arrives; requests admitted
    before the shutdown are still answered.  The socket file is removed
    on exit.  Raises [Unix.Unix_error] if the address cannot be
    bound, and [Invalid_argument] if [cfg.batch < 1] (a drain that
    never takes a request would spin forever) or [cfg.queue_cap < 1] (a
    queue that admits nothing sheds every request). *)
