(* The serve wire protocol.

   Every message — request or response — travels as one length-prefixed
   frame:

     [u32 LE total-length][Frame: magic "PSDSRV" | version | payload |
                           MD5 trailer]

   where the payload is the marshalled message value.  Reusing
   Obj.Frame means a corrupted, truncated or version-skewed message
   fails with exactly the same precise error taxonomy as a corrupted
   object file ("not a serve message (bad magic)", "serve message
   format version N, this build reads version M", "corrupt serve
   message (payload digest mismatch)") — and Marshal only ever runs on
   digest-verified bytes, so a hostile or damaged stream cannot
   segfault the decoder.  The length prefix is checked against
   [max_frame] *before* anything is buffered: an oversized claim is
   rejected at four bytes, not after swallowing it. *)

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

(* ---- framing ---- *)

let u32_le n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr (n land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 3 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.unsafe_to_string b

let u32_of s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame payload = Frame.to_string ~magic ~version ~payload

let encode value =
  let framed = frame (Marshal.to_string value []) in
  u32_le (String.length framed) ^ framed

let encode_request (r : request) = encode r
let encode_response (r : response) = encode r

let decode_frame ~what ~src framed : 'a =
  Marshal.from_string (Frame.of_string ~magic ~version ~what ~src framed) 0

let request_of_frame ~src framed : request =
  decode_frame ~what:"serve request" ~src framed

let response_of_frame ~src framed : response =
  decode_frame ~what:"serve response" ~src framed

(* ---- incremental reading (the daemon's select loop) ---- *)

type reader = {
  src : string;
  max_frame : int;
  buf : Buffer.t;
  mutable pos : int;  (* consumed prefix of [buf] *)
}

let reader ?(max_frame = default_max_frame) ~src () =
  { src; max_frame; buf = Buffer.create 4096; pos = 0 }

let feed t bytes n = Buffer.add_subbytes t.buf bytes 0 n

let compact t =
  if t.pos > 0 && t.pos = Buffer.length t.buf then begin
    Buffer.clear t.buf;
    t.pos <- 0
  end
  else if t.pos > 65536 then begin
    let rest = Buffer.sub t.buf t.pos (Buffer.length t.buf - t.pos) in
    Buffer.clear t.buf;
    Buffer.add_string t.buf rest;
    t.pos <- 0
  end

(* The next complete frame's bytes, if the buffer holds one.  Raises
   [Failure] on an oversized length claim — the connection is poisoned
   and must be closed, since framing is lost. *)
let next_frame t =
  let available = Buffer.length t.buf - t.pos in
  if available < 4 then None
  else begin
    let head = Buffer.sub t.buf t.pos 4 in
    let len = u32_of head 0 in
    if len > t.max_frame then
      failwith
        (Printf.sprintf "%s: oversized serve frame (%d bytes > %d cap)" t.src
           len t.max_frame);
    if available < 4 + len then None
    else begin
      let framed = Buffer.sub t.buf (t.pos + 4) len in
      t.pos <- t.pos + 4 + len;
      compact t;
      Some framed
    end
  end

(* ---- blocking I/O (the client, and the daemon's writes) ---- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let rec really_read fd b off len =
  if len > 0 then begin
    let n = Unix.read fd b off len in
    if n = 0 then failwith "unexpected EOF mid-frame";
    really_read fd b (off + n) (len - n)
  end

(* One whole frame off a blocking fd; [None] on a clean EOF at a frame
   boundary. *)
let read_frame ?(max_frame = default_max_frame) ~src fd =
  let head = Bytes.create 4 in
  match Unix.read fd head 0 1 with
  | 0 -> None
  | _ ->
      (try really_read fd head 1 3
       with Failure _ ->
         failwith (Printf.sprintf "%s: truncated serve frame header" src));
      let len = u32_of (Bytes.unsafe_to_string head) 0 in
      if len > max_frame then
        failwith
          (Printf.sprintf "%s: oversized serve frame (%d bytes > %d cap)" src
             len max_frame);
      let body = Bytes.create len in
      (try really_read fd body 0 len
       with Failure _ ->
         failwith (Printf.sprintf "%s: truncated serve frame" src));
      Some (Bytes.unsafe_to_string body)

(* ---- image payloads ---- *)

(* Variants travel as Link-framed images — byte-identical to what
   `minicc link -o` writes — so a client can dump a response payload
   straight to a file and run it. *)
let image_to_string = Link.to_bytes
let image_of_string ~src s = Link.of_bytes ~src s
