(* The variant-serving stack: wire-protocol error taxonomy (bad magic,
   version skew, truncation, corruption, oversized claims — each with
   its precise message), the incremental reader under adversarial
   chunking, and the daemon end to end over a real socket: overload
   shedding on a bounded queue, queue-timeout shedding, error-path
   containment (a poisoned frame doesn't take the connection, an
   oversized claim does), and the property the whole subsystem rests
   on — concurrent clients at any worker count get digests
   byte-identical to a serial in-process build. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_fails ~matching what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" what
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" what msg matching)
        true
        (contains ~needle:matching msg)

(* ---- protocol framing ---- *)

let strip_prefix wire = String.sub wire 4 (String.length wire - 4)

let sample_request =
  Sproto.Build
    {
      Sproto.id = 7;
      workload = "429.mcf";
      config = "p0-30";
      versions = (3, 12);
      want_images = false;
    }

let test_roundtrip () =
  let framed = strip_prefix (Sproto.encode_request sample_request) in
  Alcotest.(check bool)
    "request round-trips" true
    (Sproto.request_of_frame ~src:"test" framed = sample_request);
  let resp = Sproto.Shed { id = 9; reason = "queue full" } in
  let framed = strip_prefix (Sproto.encode_response resp) in
  Alcotest.(check bool)
    "response round-trips" true
    (Sproto.response_of_frame ~src:"test" framed = resp)

let test_error_taxonomy () =
  let good = strip_prefix (Sproto.encode_request sample_request) in
  check_fails ~matching:"magic" "bad magic" (fun () ->
      Sproto.request_of_frame ~src:"peer"
        ("XXXXXX" ^ String.sub good 6 (String.length good - 6)));
  check_fails ~matching:"truncated" "truncated" (fun () ->
      Sproto.request_of_frame ~src:"peer" (String.sub good 0 8));
  (let skewed = Bytes.of_string good in
   (* the u32 version field sits right after the 6-byte magic *)
   Bytes.set skewed 6 '\xEE';
   check_fails ~matching:"version" "version skew" (fun () ->
       Sproto.request_of_frame ~src:"peer" (Bytes.to_string skewed)));
  (* A peer one protocol version behind: its frame is well-formed and
     digest-clean, and must still fail on the version alone. *)
  (let v1 =
     Frame.to_string ~magic:Sproto.magic ~version:(Sproto.version - 1)
       ~payload:(Marshal.to_string sample_request [])
   in
   check_fails
     ~matching:(Printf.sprintf "version %d," (Sproto.version - 1))
     "previous protocol version" (fun () ->
       Sproto.request_of_frame ~src:"peer" v1));
  (let corrupt = Bytes.of_string good in
   let mid = 10 + ((Bytes.length corrupt - 10) / 2) in
   Bytes.set corrupt mid
     (Char.chr (Char.code (Bytes.get corrupt mid) lxor 0xFF));
   check_fails ~matching:"corrupt" "corrupt payload" (fun () ->
       Sproto.request_of_frame ~src:"peer" (Bytes.to_string corrupt)));
  (* The src shows up in the message, naming the peer. *)
  (match Sproto.request_of_frame ~src:"client-42" (String.sub good 0 8) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool) "names the peer" true (contains ~needle:"client-42" msg))

let test_bad_payload () =
  (* A digest-clean frame whose payload is no marshalled message fails
     naming the peer and the message kind. *)
  let framed =
    Frame.to_string ~magic:"PSDSRV" ~version:Sproto.version
      ~payload:"not a marshaled record"
  in
  match Sproto.request_of_frame ~src:"t" framed with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check string)
        "message" "t: corrupt serve request (bad payload)" msg

let test_recv_pipe () =
  (* Frame.recv over a real pipe: every record, then None at a clean
     EOF; EOF inside the length or the body names the truncation. *)
  let recv_all bytes =
    let r, w = Unix.pipe () in
    Frame.write_all w bytes;
    Unix.close w;
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () ->
        let rec go acc =
          match Frame.recv ~max_frame:1024 ~what:"serve" ~src:"pipe" r with
          | Some s -> go (s :: acc)
          | None -> Ok (List.rev acc)
          | exception Failure msg -> Error msg
        in
        go [])
  in
  let check what expect bytes =
    Alcotest.(check (result (list string) string)) what expect (recv_all bytes)
  in
  check "clean EOF" (Ok []) "";
  check "two records" (Ok [ "hello"; "" ])
    (Frame.prefixed "hello" ^ Frame.prefixed "");
  check "EOF inside the length"
    (Error "pipe: truncated serve frame header")
    (Frame.prefixed "hello" ^ "\005\000");
  check "EOF inside the body" (Error "pipe: truncated serve frame")
    (String.sub (Frame.prefixed "hello") 0 6)

let test_reader_chunked () =
  (* Two messages, delivered one byte at a time, come out intact and in
     order — the daemon's select loop never sees aligned frames. *)
  let wire =
    Sproto.encode_request sample_request
    ^ Sproto.encode_request (Sproto.Stats { id = 2 })
  in
  let r = Sproto.reader ~src:"chunked" () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.feed r (Bytes.make 1 c) 1;
      match Frame.next_frame r with
      | Some framed -> got := Sproto.request_of_frame ~src:"chunked" framed :: !got
      | None -> ())
    wire;
  Alcotest.(check bool)
    "both frames decoded" true
    (List.rev !got = [ sample_request; Sproto.Stats { id = 2 } ])

let test_reader_oversized () =
  (* A length claim over the cap is rejected from the prefix alone —
     nothing gets buffered. *)
  let r = Sproto.reader ~max_frame:1024 ~src:"hostile" () in
  let claim = Bytes.create 4 in
  Bytes.set_int32_le claim 0 0x10_0000l (* 1 MiB > 1 KiB cap *);
  Frame.feed r claim 4;
  check_fails ~matching:"oversized" "oversized claim" (fun () ->
      Frame.next_frame r)

(* ---- the daemon over a real socket ---- *)

let socket_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "psd-test-%s-%d.sock" tag (Unix.getpid ()))

(* Fork a daemon configured by [cfg_of]; returns (addr, pid).  The
   child serves until Shutdown (or the kill in [stop]). *)
let start_daemon ~tag cfg_of =
  let path = socket_path tag in
  let addr = Sdaemon.Unix_sock path in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Sdaemon.run (cfg_of (Sdaemon.default_cfg addr));
          0
        with _ -> 1
      in
      Unix._exit code
  | pid -> (addr, pid)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let with_daemon ~tag cfg_of f =
  let addr, pid = start_daemon ~tag cfg_of in
  Fun.protect ~finally:(fun () -> stop_daemon pid) (fun () -> f addr)

let build ~id ?(versions = (0, 1)) () =
  {
    Sproto.id;
    workload = "429.mcf";
    config = "p0-30";
    versions;
    want_images = false;
  }

let read_response ~src fd =
  match Sproto.read_frame ~src fd with
  | Some framed -> Sproto.response_of_frame ~src framed
  | None -> Alcotest.failf "%s: connection closed before reply" src

let test_queue_overflow_shed () =
  (* queue_cap 1: three Builds pipelined in one write mean the first is
     admitted and the other two arrive against a full queue — they must
     be shed with their ids echoed, and the first must still build. *)
  with_daemon ~tag:"shed"
    (fun cfg -> { cfg with Sdaemon.queue_cap = 1; batch = 1 })
    (fun addr ->
      let fd = Sclient.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Sproto.write_all fd
            (String.concat ""
               (List.map
                  (fun id -> Sproto.encode_request (Sproto.Build (build ~id ())))
                  [ 1; 2; 3 ]));
          let replies =
            List.init 3 (fun _ -> read_response ~src:"shed-test" fd)
          in
          let shed_ids =
            List.filter_map
              (function Sproto.Shed { id; reason } ->
                  Alcotest.(check bool) "reason says queue full" true
                    (contains ~needle:"queue full" reason);
                  Some id
                | _ -> None)
              replies
          and built_ids =
            List.filter_map
              (function Sproto.Built { id; variants; _ } ->
                  Alcotest.(check int) "built both versions" 2
                    (List.length variants);
                  Some id
                | _ -> None)
              replies
          in
          Alcotest.(check (list int)) "requests 2 and 3 shed" [ 2; 3 ]
            (List.sort compare shed_ids);
          Alcotest.(check (list int)) "request 1 built" [ 1 ] built_ids))

let test_queue_timeout_shed () =
  (* batch 1 and a 5 ms queue timeout: a wide request monopolizes the
     first batch for far longer than 5 ms (it compiles and trains the
     workload first), so the request queued behind it goes stale and
     must be shed as timed out. *)
  with_daemon ~tag:"timeout"
    (fun cfg -> { cfg with Sdaemon.batch = 1; timeout_s = 0.005 })
    (fun addr ->
      let fd = Sclient.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Sproto.write_all fd
            (Sproto.encode_request
               (Sproto.Build (build ~id:1 ~versions:(0, 199) ()))
            ^ Sproto.encode_request (Sproto.Build (build ~id:2 ())));
          let r1 = read_response ~src:"timeout-test" fd in
          let r2 = read_response ~src:"timeout-test" fd in
          (match r1 with
          | Sproto.Built { id = 1; variants; _ } ->
              Alcotest.(check int) "wide request built" 200
                (List.length variants)
          | r -> Alcotest.failf "reply 1: unexpected %d" (Sproto.response_id r));
          match r2 with
          | Sproto.Shed { id = 2; reason } ->
              Alcotest.(check bool) "reason says timed out" true
                (contains ~needle:"timed out" reason)
          | r -> Alcotest.failf "reply 2: unexpected %d" (Sproto.response_id r)))

let test_error_paths_on_socket () =
  with_daemon ~tag:"errors" Fun.id (fun addr ->
      (* A corrupt frame (valid length prefix) answers Error_reply and
         leaves the connection usable: the next, valid request on the
         same connection still builds. *)
      let fd = Sclient.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let wire = Sproto.encode_request (Sproto.Build (build ~id:4 ())) in
          let poisoned = Bytes.of_string wire in
          let last = Bytes.length poisoned - 1 in
          Bytes.set poisoned last
            (Char.chr (Char.code (Bytes.get poisoned last) lxor 0xFF));
          Sproto.write_all fd (Bytes.to_string poisoned);
          (match read_response ~src:"errors-test" fd with
          | Sproto.Error_reply { message; _ } ->
              Alcotest.(check bool) "corrupt named" true
                (contains ~needle:"corrupt" message)
          | r -> Alcotest.failf "unexpected reply %d" (Sproto.response_id r));
          Sproto.write_all fd wire;
          match read_response ~src:"errors-test" fd with
          | Sproto.Built { id = 4; _ } -> ()
          | r -> Alcotest.failf "unexpected reply %d" (Sproto.response_id r));
      (* A bad workload or config or version range answers Error_reply
         naming the problem. *)
      let fd = Sclient.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (match
             Sclient.rpc fd
               (Sproto.Build
                  { (build ~id:5 ()) with Sproto.workload = "999.nonesuch" })
           with
          | Sproto.Error_reply { id = 5; message } ->
              Alcotest.(check bool) "names the workload" true
                (contains ~needle:"999.nonesuch" message)
          | r -> Alcotest.failf "unexpected reply %d" (Sproto.response_id r));
          (match
             Sclient.rpc fd
               (Sproto.Build
                  { (build ~id:6 ()) with Sproto.config = "bogus-config" })
           with
          | Sproto.Error_reply { id = 6; _ } -> ()
          | r -> Alcotest.failf "unexpected reply %d" (Sproto.response_id r));
          match
            Sclient.rpc fd
              (Sproto.Build { (build ~id:7 ()) with Sproto.versions = (5, 1) })
          with
          | Sproto.Error_reply { id = 7; message } ->
              Alcotest.(check bool) "names the range" true
                (contains ~needle:"version range" message)
          | r -> Alcotest.failf "unexpected reply %d" (Sproto.response_id r));
      (* An oversized length claim poisons the stream: Error_reply, then
         the daemon closes the connection. *)
      let fd = Sclient.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let claim = Bytes.create 4 in
          Bytes.set_int32_le claim 0 0x7000_0000l;
          Sproto.write_all fd (Bytes.to_string claim);
          (match read_response ~src:"oversize-test" fd with
          | Sproto.Error_reply { message; _ } ->
              Alcotest.(check bool) "oversized named" true
                (contains ~needle:"oversized" message)
          | r -> Alcotest.failf "unexpected reply %d" (Sproto.response_id r));
          match Sproto.read_frame ~src:"oversize-test" fd with
          | None -> () (* clean EOF: the daemon closed us *)
          | Some _ -> Alcotest.fail "expected the daemon to close the stream"))

let test_concurrent_digest_identity () =
  (* Two client processes hammer one -j 2 daemon with overlapping
     version windows; every digest either returns must equal the serial
     in-process oracle's.  Children report through their exit status. *)
  with_daemon ~tag:"concurrent"
    (fun cfg -> { cfg with Sdaemon.jobs = Pool.Jobs 2 })
    (fun addr ->
      let reqs offset =
        List.init 3 (fun i ->
            build ~id:(offset + i) ~versions:(i * 2, (i * 2) + 4) ())
      in
      let spawn offset =
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            let code =
              try
                let fd = Sclient.connect addr in
                let r = Sclient.replay ~verify:true fd (reqs offset) in
                Unix.close fd;
                if
                  r.Sclient.digest_mismatches = 0
                  && r.Sclient.built = 3
                  && r.Sclient.errors = 0
                then 0
                else 1
              with _ -> 1
            in
            Unix._exit code
        | pid -> pid
      in
      let pids = [ spawn 100; spawn 200 ] in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "client process saw a mismatch or error")
        pids)

let test_portfolio_specs_served () =
  (* Divpass/budget config specs travel the wire as strings and resolve
     through Config.of_spec on both ends: the daemon builds each spec
     and the verifying client rebuilds it in process — a digest mismatch
     would mean the two ends disagree about what the spec names. *)
  with_daemon ~tag:"portfolio" Fun.id (fun addr ->
      let specs =
        [
          "off+sched";
          "off+regperm";
          "off+subst";
          "p0-30+sched+regperm+subst";
          "p50+sched+regperm+subst+b2";
        ]
      in
      let reqs =
        List.mapi
          (fun i spec ->
            {
              (build ~id:(500 + i) ~versions:(0, 2) ()) with
              Sproto.config = spec;
            })
          specs
      in
      let fd = Sclient.connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let r = Sclient.replay ~verify:true fd reqs in
          Alcotest.(check int) "all specs built" (List.length specs)
            r.Sclient.built;
          Alcotest.(check int) "no errors" 0 r.Sclient.errors;
          Alcotest.(check int) "digests match the in-process oracle" 0
            r.Sclient.digest_mismatches))

let suite =
  [
    ( "serve.proto",
      [
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
        Alcotest.test_case "bad payload" `Quick test_bad_payload;
        Alcotest.test_case "chunked reader" `Quick test_reader_chunked;
        Alcotest.test_case "recv on a pipe" `Quick test_recv_pipe;
        Alcotest.test_case "oversized claim" `Quick test_reader_oversized;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "queue overflow sheds" `Quick
          test_queue_overflow_shed;
        Alcotest.test_case "queue timeout sheds" `Quick
          test_queue_timeout_shed;
        Alcotest.test_case "error paths" `Quick test_error_paths_on_socket;
        Alcotest.test_case "concurrent digest identity" `Quick
          test_concurrent_digest_identity;
        Alcotest.test_case "portfolio specs served" `Quick
          test_portfolio_specs_served;
      ] );
  ]
