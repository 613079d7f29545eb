(* The serve wire protocol.

   Every message — request or response — travels as one length-prefixed
   frame:

     [u32 LE total-length][Frame: magic "PSDSRV" | version | payload |
                           MD5 trailer]

   where the payload is the marshalled message value.  {!Frame} owns
   every byte of it, so a corrupted, truncated or version-skewed
   message fails with exactly the same precise error taxonomy as a
   corrupted object file ("not a serve request (bad magic)", "serve
   request format version N, this build reads version M", "corrupt
   serve request (payload digest mismatch)", "corrupt serve request
   (bad payload)") — and Marshal only ever runs on digest-verified
   bytes.  The length prefix is checked against [max_frame] *before*
   anything is buffered: an oversized claim is rejected at four bytes,
   not after swallowing it.  This module only fixes the serve
   defaults: the magic, the version, the 64 MiB cap and "serve" in
   messages. *)

let magic = "PSDSRV"
let version = 2

(* Images for a whole population request fit comfortably; anything
   bigger than this is a protocol violation, not a workload. *)
let default_max_frame = 64 * 1024 * 1024

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
  image : string option;  (** {!Link}-framed image bytes, on request *)
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
  store_entries : int;
  metrics_json : string;
}

type response =
  | Built of built
  | Stats_reply of stats
  | Shed of { id : int; reason : string }
  | Error_reply of { id : int; message : string }
  | Bye of { id : int }

let response_id = function
  | Built { id; _ }
  | Stats_reply { id; _ }
  | Shed { id; _ }
  | Error_reply { id; _ }
  | Bye { id } ->
      id

(* ---- framing: Frame's container on Frame's stream, serve defaults ---- *)

let encode value = Frame.prefixed (Frame.encode ~magic ~version value)
let encode_request (r : request) = encode r
let encode_response (r : response) = encode r

let request_of_frame ~src framed : request =
  Frame.decode ~magic ~version ~what:"serve request" ~src framed

let response_of_frame ~src framed : response =
  Frame.decode ~magic ~version ~what:"serve response" ~src framed

let reader ?(max_frame = default_max_frame) ~src () =
  Frame.reader ~max_frame ~what:"serve" ~src

let write_all = Frame.write_all

let read_frame ?(max_frame = default_max_frame) ~src fd =
  Frame.recv ~max_frame ~what:"serve" ~src fd

(* ---- image payloads ---- *)

(* Variants travel as Link-framed images — byte-identical to what
   `minicc link -o` writes — so a client can dump a response payload
   straight to a file and run it. *)
let image_to_string = Link.to_bytes
let image_of_string ~src s = Link.of_bytes ~src s
