(* The wire layer: the container (magic, version, payload, MD5
   trailer), marshalled values in it, and u32 LE length-prefixed
   streams.  A stale, truncated or bit-flipped artifact or message
   fails with a [Failure] naming the source and the problem, never
   with a Marshal segfault or silent garbage; a stream's length claim
   is checked against its cap before anything is buffered. *)

let digest_len = 16
let version_len = 4

let header_len magic = String.length magic + version_len

let u32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Bytes.unsafe_to_string b

let get_u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFF_FFFF

let to_string ~magic ~version ~payload =
  String.concat "" [ magic; u32 version; payload; Digest.string payload ]

let of_string ~magic ~version ~what ~src contents =
  let mlen = String.length magic in
  if String.length contents < mlen || String.sub contents 0 mlen <> magic then
    failwith (Printf.sprintf "%s: not a %s (bad magic)" src what);
  if String.length contents < header_len magic + digest_len then
    failwith (Printf.sprintf "%s: truncated %s" src what);
  let file_version = get_u32 contents mlen in
  if file_version <> version then
    failwith
      (Printf.sprintf "%s: %s format version %d, this build reads version %d"
         src what file_version version);
  let payload_len = String.length contents - header_len magic - digest_len in
  let payload = String.sub contents (header_len magic) payload_len in
  let trailer = String.sub contents (header_len magic + payload_len) digest_len in
  if not (String.equal (Digest.string payload) trailer) then
    failwith (Printf.sprintf "%s: corrupt %s (payload digest mismatch)" src what);
  payload

let write ~magic ~version ~payload path =
  let framed = to_string ~magic ~version ~payload in
  Out_channel.with_open_bin path (fun oc -> output_string oc framed)

(* ---- marshalled payloads ---- *)

let encode ~magic ~version v =
  to_string ~magic ~version ~payload:(Marshal.to_string v [])

let decode ~magic ~version ~what ~src framed =
  let payload = of_string ~magic ~version ~what ~src framed in
  match Marshal.from_string payload 0 with
  | v -> v
  | exception _ ->
      failwith (Printf.sprintf "%s: corrupt %s (bad payload)" src what)

let save ~magic ~version v path =
  write ~magic ~version ~payload:(Marshal.to_string v []) path

let load ~magic ~version ~what path =
  decode ~magic ~version ~what ~src:path
    (In_channel.with_open_bin path In_channel.input_all)

(* ---- length-prefixed streams ---- *)

let prefixed s =
  if String.length s > 0xFFFF_FFFF then invalid_arg "Frame.prefixed: over 4 GiB";
  u32 (String.length s) ^ s

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.single_write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let check_claim ~max_frame ~what ~src len =
  if len > max_frame then
    failwith
      (Printf.sprintf "%s: oversized %s frame (%d bytes > %d cap)" src what len
         max_frame)

type reader = {
  what : string;
  src : string;
  max_frame : int;
  buf : Buffer.t;
  mutable pos : int;  (* consumed prefix of [buf] *)
}

let reader ~max_frame ~what ~src =
  { what; src; max_frame; buf = Buffer.create 4096; pos = 0 }

let feed t bytes n = Buffer.add_subbytes t.buf bytes 0 n

(* Drop the consumed prefix once it is the whole buffer, or once it
   passes 64 KiB; never copy the buffer on a read that completes no
   record. *)
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

let next_frame t =
  let available = Buffer.length t.buf - t.pos in
  if available < 4 then None
  else begin
    let len = get_u32 (Buffer.sub t.buf t.pos 4) 0 in
    check_claim ~max_frame:t.max_frame ~what:t.what ~src:t.src len;
    if available < 4 + len then None
    else begin
      let framed = Buffer.sub t.buf (t.pos + 4) len in
      t.pos <- t.pos + 4 + len;
      compact t;
      Some framed
    end
  end

(* Bytes read into [b.(off..off+len-1)] before EOF. *)
let rec read_upto fd b off len =
  if len = 0 then off
  else
    match Unix.read fd b off len with
    | 0 -> off
    | n -> read_upto fd b (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_upto fd b off len

let recv ~max_frame ~what ~src fd =
  let head = Bytes.create 4 in
  match read_upto fd head 0 4 with
  | 0 -> None
  | n when n < 4 ->
      failwith (Printf.sprintf "%s: truncated %s frame header" src what)
  | _ ->
      let len = get_u32 (Bytes.unsafe_to_string head) 0 in
      check_claim ~max_frame ~what ~src len;
      let body = Bytes.create len in
      if read_upto fd body 0 len < len then
        failwith (Printf.sprintf "%s: truncated %s frame" src what);
      Some (Bytes.unsafe_to_string body)
