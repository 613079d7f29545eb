(** The serve wire protocol: diversity-as-a-service requests and
    responses, framed for a socket.

    Every message travels as one length-prefixed frame:
    [u32 LE length | Frame(magic "PSDSRV", version, marshalled message,
    MD5 trailer)].  Reusing {!Frame} gives socket messages the same
    precise error taxonomy as on-disk artifacts — bad magic, version
    skew, truncation and corruption each fail with a [Failure] naming
    the peer — and guarantees [Marshal] only ever decodes
    digest-verified bytes.  The length prefix is validated against the
    frame cap {e before} any buffering, so an oversized claim is
    rejected after four bytes. *)

val magic : string
val version : int
(** Bumped whenever a marshalled message changes shape, so a skewed
    peer fails with the version error instead of misreading a record. *)

val default_max_frame : int
(** 64 MiB — far above any real population response, far below a
    memory-exhaustion attack. *)

type build_req = {
  id : int;  (** echoed in the response, so pipelined clients can match *)
  workload : string;  (** {!Workloads.find} name *)
  config : string;  (** {!Config.of_spec} spec *)
  versions : int * int;  (** inclusive version (seed) range lo..hi *)
  want_images : bool;
      (** return the full framed images, not just their digests *)
}

type request =
  | Build of build_req
  | Stats of { id : int }
  | Shutdown of { id : int }

type variant = {
  version : int;
  digest : string;  (** hex MD5 of the variant's [.text] *)
  image : string option;  (** {!Link.to_bytes} image, when requested *)
}

type built = {
  id : int;
  workload : string;
  config : string;  (** resolved {!Config.name}, not the raw spec *)
  variants : variant list;
  lowering_runs : int;
      (** isel runs this request triggered — 0 on a warm store *)
  store_hits : int;
  store_misses : int;
  queue_depth : int;  (** depth observed when the request was admitted *)
}

type stats = {
  id : int;
  requests : int64;
  built_variants : int64;
  shed : int64;
  errors : int64;
  store_entries : int;  (** artifacts in the daemon's {!Store} *)
  metrics_json : string;
}

type response =
  | Built of built
  | Stats_reply of stats
  | Shed of { id : int; reason : string }
  | Error_reply of { id : int; message : string }
  | Bye of { id : int }

val response_id : response -> int

val encode_request : request -> string
(** The full wire representation, length prefix included. *)

val encode_response : response -> string

val request_of_frame : src:string -> string -> request
(** Decode a frame (as returned by {!next_frame} / {!read_frame} — the
    length prefix already stripped).  Raises [Failure] naming [src] on
    bad magic, version skew, truncation or corruption. *)

val response_of_frame : src:string -> string -> response

(** {2 Incremental reading} — the daemon's select loop *)

type reader

val reader : ?max_frame:int -> src:string -> unit -> reader
val feed : reader -> bytes -> int -> unit

val next_frame : reader -> string option
(** The next complete frame, if buffered.  Raises [Failure] on an
    oversized length claim: framing is lost, close the connection. *)

(** {2 Blocking I/O} — the client side *)

val write_all : Unix.file_descr -> string -> unit

val read_frame : ?max_frame:int -> src:string -> Unix.file_descr -> string option
(** One whole frame off a blocking fd; [None] on clean EOF at a frame
    boundary.  Raises [Failure] on mid-frame EOF or an oversized
    claim. *)

(** {2 Image payloads} *)

val image_to_string : Link.image -> string
(** {!Link.to_bytes}: byte-identical to the on-disk image format. *)

val image_of_string : src:string -> string -> Link.image
