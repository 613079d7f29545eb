(* Fuzzing campaign runner: generate → oracle → (optionally) shrink,
   with Metrics accounting and reproducer rendering.  Everything here is
   deterministic in the campaign seed: the same seed and count produce
   the same programs, the same verdicts, and byte-identical
   reproducers. *)

type finding = {
  report : Oracle.report;  (** the original diverging program's report *)
  shrunk : Shrink.result option;  (** present when shrinking was enabled *)
}

type campaign = {
  seed : int64;
  count : int;
  checked : int;  (** programs actually checked *)
  runs : int;  (** total oracle executions *)
  skips : int;  (** documented-asymmetry skips encountered *)
  findings : finding list;  (** divergences, in discovery order *)
  errors : (int * string) list;
      (** harness-side task failures (raising tasks, crashed pool workers),
          by program index — distinct from findings, which are
          divergences the oracle actually judged *)
}

let m_programs = Metrics.counter "fuzz.programs"
let m_runs = Metrics.counter "fuzz.runs"
let m_skips = Metrics.counter "fuzz.skips"
let m_divergences = Metrics.counter "fuzz.divergences"
let m_shrink_attempts = Metrics.counter "fuzz.shrink.attempts"

(* ------------------------------------------------------------------ *)
(* Reproducers.  A reproducer is a self-contained MiniC file: the header
   comments carry the seed tuple, the arguments, and the divergence, so
   replaying needs nothing but the file (see [parse_args_header]). *)

let instr_op = function
  | Ir.Bin (op, _, _, _) -> "bin." ^ Ir.binop_name op
  | Ir.Neg _ -> "neg"
  | Ir.Not _ -> "not"
  | Ir.Cmp (op, _, _, _) -> "cmp." ^ Ir.relop_name op
  | Ir.Copy _ -> "copy"
  | Ir.Load _ -> "load"
  | Ir.Store _ -> "store"
  | Ir.Global_addr _ -> "global_addr"
  | Ir.Stack_addr _ -> "stack_addr"
  | Ir.Call _ -> "call"

let term_op = function
  | Ir.Ret _ -> "ret"
  | Ir.Jmp _ -> "jmp"
  | Ir.Cbr _ -> "cbr"
  | Ir.Cbr_nz _ -> "cbr_nz"

(* IR-opcode coverage of one program, tallied into the Metrics registry
   under [fuzz.ir.*] / [fuzz.term.*] — the bench experiment's measure of
   how much of the instruction set the generator exercises. *)
let record_coverage (c : Driver.compiled) =
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun i -> Metrics.incr (Metrics.counter ("fuzz.ir." ^ instr_op i)))
            b.Ir.instrs;
          Metrics.incr (Metrics.counter ("fuzz.term." ^ term_op b.Ir.term)))
        f.Ir.blocks)
    c.Driver.modul.Ir.funcs

let args_to_string args =
  String.concat " " (List.map Int32.to_string args)

let reproducer_header (p : Gen.t) (d : Oracle.divergence) =
  let b = Buffer.create 256 in
  Buffer.add_string b "// fuzz reproducer\n";
  Buffer.add_string b
    (Printf.sprintf "// seed=%Ld index=%d\n" p.Gen.seed p.Gen.index);
  Buffer.add_string b (Printf.sprintf "// args: %s\n" (args_to_string p.Gen.args));
  Buffer.add_string b
    (Printf.sprintf "// divergence: %s vs %s\n" d.Oracle.left d.Oracle.right);
  Buffer.add_string b
    (Printf.sprintf "//   left:  %s\n"
       (Oracle.outcome_to_string d.Oracle.left_outcome));
  Buffer.add_string b
    (Printf.sprintf "//   right: %s\n"
       (Oracle.outcome_to_string d.Oracle.right_outcome));
  Buffer.add_string b (Printf.sprintf "//   detail: %s\n" d.Oracle.detail);
  Buffer.contents b

let reproducer (f : finding) =
  let p, d =
    match f.shrunk with
    | Some s -> (
        ( s.Shrink.shrunk,
          match s.Shrink.report.Oracle.divergence with
          | Some d -> d
          | None -> assert false ))
    | None -> (
        ( f.report.Oracle.program,
          match f.report.Oracle.divergence with
          | Some d -> d
          | None -> invalid_arg "Fuzz.reproducer: no divergence" ))
  in
  reproducer_header p d ^ p.Gen.source

(* [parse_args_header src] recovers the main arguments from a
   reproducer's (or corpus file's) "// args: ..." line; a program without
   one takes no arguments. *)
let parse_args_header src =
  let prefix = "// args:" in
  let lines = String.split_on_char '\n' src in
  match
    List.find_opt
      (fun l ->
        String.length l >= String.length prefix
        && String.equal (String.sub l 0 (String.length prefix)) prefix)
      lines
  with
  | None -> []
  | Some l ->
      String.sub l (String.length prefix)
        (String.length l - String.length prefix)
      |> String.split_on_char ' '
      |> List.filter (fun s -> not (String.equal s ""))
      |> List.map (fun s ->
             match Int32.of_string_opt s with
             | Some v -> v
             | None -> failwith ("bad args header value: " ^ s))

(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* The campaign: the generate→oracle grid runs on the pool (each program
   is one task, seeded by (campaign seed, index) — parallel and serial
   runs produce identical verdicts), while everything order- or
   filesystem-sensitive — shrinking, logging, reproducer files, the
   campaign record — happens in the parent, walking results in index
   order.  [~jobs:(Jobs 1)] (the default) takes the pool's in-process
   serial path, so it IS the reference semantics, not a second code
   path. *)
let run ?levels ?configs ?versions ?(shrink = true) ?out_dir
    ?(log = fun _ -> ()) ?(jobs = Pool.Jobs 1) ~seed ~count () =
  (match out_dir with Some d -> ensure_dir d | None -> ());
  let outcomes =
    Pool.run ~jobs
      (List.init count (fun index () ->
           let p = Gen.generate ~seed ~index in
           let r = Oracle.check ?levels ?configs ?versions p in
           Metrics.incr m_programs;
           Metrics.incr ~by:(Int64.of_int r.Oracle.runs) m_runs;
           Metrics.incr ~by:(Int64.of_int (List.length r.Oracle.skips)) m_skips;
           if r.Oracle.divergence <> None then Metrics.incr m_divergences;
           r))
  in
  let runs = ref 0 and skips = ref 0 and findings = ref [] in
  let checked = ref 0 and errors = ref [] in
  List.iteri
    (fun index outcome ->
      match outcome with
      | Pool.Done (r : Oracle.report) -> (
          incr checked;
          runs := !runs + r.Oracle.runs;
          skips := !skips + List.length r.Oracle.skips;
          match r.Oracle.divergence with
          | None -> ()
          | Some d ->
              let p = r.Oracle.program in
              log
                (Printf.sprintf "divergence at index %d: %s vs %s — %s" index
                   d.Oracle.left d.Oracle.right d.Oracle.detail);
              let shrunk =
                if shrink && Array.length p.Gen.trace > 0 then begin
                  let s = Shrink.shrink ?levels ?configs ?versions p r in
                  Metrics.incr
                    ~by:(Int64.of_int s.Shrink.attempts)
                    m_shrink_attempts;
                  runs := !runs + (s.Shrink.attempts * r.Oracle.runs);
                  log
                    (Printf.sprintf
                       "shrunk %d -> %d trace decisions (%d attempts)"
                       (Array.length p.Gen.trace)
                       (Array.length s.Shrink.shrunk.Gen.trace)
                       s.Shrink.attempts);
                  Some s
                end
                else None
              in
              let f = { report = r; shrunk } in
              findings := f :: !findings;
              (match out_dir with
              | Some dir ->
                  let path = Filename.concat dir (p.Gen.name ^ ".repro.mc") in
                  write_file path (reproducer f);
                  log ("reproducer written to " ^ path)
              | None -> ()))
      | o ->
          let msg = Pool.outcome_to_string o in
          log (Printf.sprintf "harness error at index %d: %s" index msg);
          errors := (index, msg) :: !errors)
    outcomes;
  {
    seed;
    count;
    checked = !checked;
    runs = !runs;
    skips = !skips;
    findings = List.rev !findings;
    errors = List.rev !errors;
  }
