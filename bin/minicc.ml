(* minicc — the diversifying MiniC compiler, as a command-line tool.

   The full paper workflow is expressible from the shell:

     minicc compile prog.mc -o prog.bin           # undiversified build
     minicc compile prog.mc -c -o prog.o          # relocatable object unit
     minicc link prog.o -o prog.bin               # compose objects + runtime
     minicc compile prog.mc -O0                   # pick the opt level
     minicc compile prog.mc --passes simplify-cfg,constfold,copyprop,dce \
            --verify-each                         # custom pipeline ("O2
                                                  # minus CSE"), IR checked
                                                  # after every pass
     minicc compile prog.mc --pass-stats          # per-pass time/size table
     minicc compile prog.mc --pass-stats=json     # same, machine-readable
     minicc run prog.bin --args 5,10              # simulate
     minicc run prog.bin --args 5,10 --sim-profile
                                                  # + pprof-style runtime
                                                  # profile (per-function
                                                  # insns/NOPs/cycles)
     minicc run prog.bin --args 5,10 --sim-profile=json
     minicc compile prog.mc --trace compile.trace # Chrome trace-event
                                                  # spans (any command)
     minicc profile prog.mc --args 5,10 -o prog.prof
     minicc profile record prog.div.bin --args 5,10 -o prog.psdprof
                                                  # sampled production
                                                  # profile of whatever
                                                  # binary actually runs
     minicc profile merge -o fleet.psdprof a.psdprof b.psdprof
     minicc profile show fleet.psdprof --top 10
     minicc profile diff fleet.psdprof prog.prof  # staleness vs fresh
     minicc diversify prog.mc --profile prog.prof --config p0-30 \
            --variant 3 -o prog.div.bin
     minicc diversify prog.mc --sampled-profile fleet.psdprof \
            --config p0-30 -o prog.div2.bin       # the closed PGO loop
     minicc gadgets prog.bin                      # gadget census
     minicc survivor prog.bin prog.div.bin        # Survivor comparison
     minicc attack prog.bin --scanner ropgadget   # feasibility check
     minicc disas prog.bin                        # disassembly listing
     minicc workload 473.astar --ref              # run a suite program *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The one config-spec entry point for every command that takes a spec
   (run, workload, diversify, serve-client): a bad spec always prints
   the same shape of message, names the offending spec, and exits 2 —
   distinct from the runtime-failure exit 1. *)
let parse_config spec =
  match Config.of_spec spec with
  | Ok c -> c
  | Error e ->
      Format.eprintf "minicc: bad config spec %S: %s@." spec e;
      exit 2

(* --config SPEC plus -n/--variant, shared by run, workload and
   diversify: [Some (config, version)] when a spec is given (or
   defaulted).  The spec is parsed as the command line is evaluated, so
   a bad one exits 2 before any compilation work. *)
let variant_term ~default ~doc =
  let config =
    Arg.(
      value & opt (some string) default & info [ "config" ] ~docv:"SPEC" ~doc)
  in
  let version =
    Arg.(
      value & opt int 0
      & info [ "n"; "variant" ] ~docv:"N" ~doc:"Version index (seed).")
  in
  Term.(
    const (fun spec version ->
        Option.map (fun spec -> (parse_config spec, version)) spec)
    $ config $ version)

(* --profile FILE, the exact training profile guiding a --config build
   of run and diversify; without one every block is cold. *)
let profile_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:"Execution profile (from $(b,profile)) guiding $(b,--config).")

let load_profile = function
  | Some path -> Profile.of_string (read_file path)
  | None -> Profile.empty

(* How to build: an optimization pipeline plus verification policy,
   assembled from --opt-level / -O0/-O1/-O2 / --passes / --verify-each. *)
type build = { descr : Pipeline.descr; verify_each : bool }

let compile_source ~build path =
  Driver.compile ~passes:build.descr ~verify_each:build.verify_each
    ~name:(Filename.basename path) (read_file path)

(* ---- common arguments ---- *)

let source_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE")

let output_arg ~default =
  Arg.(value & opt string default & info [ "o"; "output" ] ~docv:"FILE")

(* --args INTS: a malformed integer is a usage error, like any other bad
   option value. *)
let args_arg =
  let parse s =
    let toks = List.map String.trim (String.split_on_char ',' s) in
    if String.trim s = "" then Ok []
    else
      match List.find_opt (fun t -> Int32.of_string_opt t = None) toks with
      | Some bad -> Error (`Msg (Printf.sprintf "bad integer argument %S" bad))
      | None -> Ok (List.map Int32.of_string toks)
  in
  let print ppf l =
    Format.pp_print_string ppf (String.concat "," (List.map Int32.to_string l))
  in
  Arg.(
    value
    & opt (conv (parse, print)) []
    & info [ "args" ] ~docv:"INTS" ~doc:"Comma-separated program arguments.")

let build_term =
  let level_conv =
    let parse s =
      match Pipeline.level_of_string s with
      | Some l -> Ok l
      | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown optimization level %S (expected O0, O1 or O2)" s))
    in
    let print ppf l = Format.pp_print_string ppf (Pipeline.level_name l) in
    Arg.conv (parse, print)
  in
  let descr_conv =
    let parse s =
      match Pipeline.descr_of_string s with
      | Ok d -> Ok d
      | Error e -> Error (`Msg e)
    in
    let print ppf d = Format.pp_print_string ppf (Pipeline.descr_to_string d) in
    Arg.conv (parse, print)
  in
  let opt_level_arg =
    (* "O" first makes -O0 / -O1 / -O2 work as glued short options. *)
    Arg.(
      value
      & opt (some level_conv) None
      & info [ "O"; "opt-level"; "opt" ] ~docv:"LEVEL"
          ~doc:"Optimization level ($(b,O0), $(b,O1), $(b,O2); default O2).")
  in
  let passes_arg =
    Arg.(
      value
      & opt (some descr_conv) None
      & info [ "passes" ] ~docv:"PASSES"
          ~doc:
            (Printf.sprintf
               "Explicit IR pass pipeline, overriding the -O level: \
                comma-separated pass names, optionally $(b,@N) to bound the \
                fixpoint rounds (e.g. %S). Known passes: %s."
               "constfold,dce@1"
               (String.concat ", " Pipeline.pass_names)))
  in
  let verify_each_arg =
    Arg.(
      value & flag
      & info [ "verify-each" ]
          ~doc:"Re-verify the IR after every optimization pass run.")
  in
  let make opt_level passes verify_each =
    let descr =
      match passes with
      | Some d -> d
      | None ->
          Pipeline.of_level (Option.value opt_level ~default:Pipeline.O2)
    in
    { descr; verify_each }
  in
  Term.(const make $ opt_level_arg $ passes_arg $ verify_each_arg)

(* ---- tracing: every command accepts --trace=FILE and exports the
   spans the driver opened (compile, train, diversify, link, simulate)
   as Chrome trace-event JSON. ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record begin/end spans for every toolchain stage and write \
           them to $(docv) in Chrome trace-event JSON (load in \
           chrome://tracing or Perfetto).")

let with_trace trace_file f =
  match trace_file with
  | None -> f ()
  | Some file ->
      Trace.start ();
      Fun.protect
        ~finally:(fun () ->
          Trace.stop ();
          Trace.write file;
          Format.eprintf "trace: %d events written to %s@."
            (Trace.event_count ()) file)
        f

(* --NAME[=FORMAT]: off by default, a table when given bare. *)
let report_format_arg name ~doc =
  Arg.(
    value
    & opt ~vopt:(Some `Table)
        (some (enum [ ("table", `Table); ("json", `Json) ]))
        None
    & info [ name ] ~docv:"FORMAT" ~doc)

let pass_stats_arg =
  report_format_arg "pass-stats"
    ~doc:
      "Print per-pass statistics (wall time, size deltas, fixpoint runs, \
       emitted bytes) as a $(b,table) (default) or $(b,json)."

let print_pass_stats fmt (c : Driver.compiled) =
  match fmt with
  | None -> ()
  | Some `Table -> Format.printf "%a" Cctx.pp_table c.Driver.cctx
  | Some `Json -> print_endline (Cctx.to_json c.Driver.cctx)

(* ---- commands ---- *)

let compile_cmd =
  let object_arg =
    Arg.(
      value & flag
      & info [ "c"; "object" ]
          ~doc:
            "Emit a relocatable object unit (one object per function, \
             unresolved relocations) instead of a linked image; feed the \
             result to $(b,minicc link).  Default output: $(b,a.o).")
  in
  let run source output emit_object build stats trace =
    with_trace trace (fun () ->
        let c = compile_source ~build source in
        if emit_object then begin
          let output = if output = "a.bin" then "a.o" else output in
          let unit =
            {
              Objfile.uname = Filename.basename source;
              funcs = c.Driver.objects;
              globals = c.Driver.modul.Ir.globals;
            }
          in
          Objfile.save unit output;
          Format.printf "%s: %d functions, %d relocatable bytes@." output
            (List.length unit.Objfile.funcs)
            (List.fold_left
               (fun n o -> n + Objfile.code_size o)
               0 unit.Objfile.funcs)
        end
        else begin
          let image = Driver.link_baseline c in
          Link.save image output;
          Format.printf "%s: %d bytes of .text, %d functions@." output
            (String.length image.Link.text)
            (List.length image.Link.symbols)
        end;
        print_pass_stats stats c)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile MiniC to an undiversified binary image (or, with $(b,-c), \
          a relocatable object unit).")
    Term.(
      const run $ source_arg $ output_arg ~default:"a.bin" $ object_arg
      $ build_term $ pass_stats_arg $ trace_arg)

let link_cmd =
  let objects_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"OBJECT")
  in
  let run objects output trace =
    with_trace trace (fun () ->
        let units, image =
          try
            let units = List.map Objfile.load objects in
            let funcs = List.concat_map (fun u -> u.Objfile.funcs) units in
            let globals =
              List.concat_map (fun u -> u.Objfile.globals) units
            in
            (units, Link.link_objects ~objects:funcs ~globals ())
          with Failure msg ->
            Format.eprintf "minicc: %s@." msg;
            exit 1
        in
        Link.save image output;
        Format.printf "%s: linked %d unit(s), %d bytes of .text, %d functions@."
          output (List.length units)
          (String.length image.Link.text)
          (List.length image.Link.symbols))
  in
  Cmd.v
    (Cmd.info "link"
       ~doc:
         "Link relocatable object units (from $(b,compile -c)) against the \
          fixed runtime into an executable image.")
    Term.(const run $ objects_arg $ output_arg ~default:"a.bin" $ trace_arg)

let sim_profile_arg =
  report_format_arg "sim-profile"
    ~doc:
      "Collect a runtime execution profile (per-function and per-block \
       retired instructions, retired candidate NOPs and modeled cycles) \
       and print it as a pprof-style $(b,table) (default) or $(b,json)."

let sample_arg =
  Arg.(
    value
    & opt ~vopt:(Some Sim.default_sample_period) (some int) None
    & info [ "sim-profile-sample" ] ~docv:"PERIOD"
        ~doc:
          (Printf.sprintf
             "Record a PC sample every $(docv) retired cycles (default \
              %d) — production-style profiling with a modeled overhead — \
              and print the back-mapped (function, block) sample table. \
              Use $(b,minicc profile record) to persist the recording."
             Sim.default_sample_period))

let top_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "top" ] ~docv:"N"
        ~doc:"Truncate profile tables to the $(docv) hottest rows.")

let die fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "minicc: %s@." msg;
      exit 1)
    fmt

(* Reject a non-positive sampling period here rather than letting
   [Sim.run] raise an uncaught Invalid_argument. *)
let validate_period = function
  | Some n when n <= 0 -> die "sample period must be positive (got %d)" n
  | p -> p

let load_image path =
  try Link.load path
  with Failure msg ->
    Format.eprintf "minicc: %s@." msg;
    exit 1

(* A program run with the wrong number of arguments is an input error,
   reported before anything executes. *)
let check_arity ~arity args =
  let n = List.length args in
  if n <> arity then
    die "main expects %d argument%s, got %d" arity
      (if arity = 1 then "" else "s")
      n

(* The simulator options run and workload share: --sim-profile,
   --sim-profile-sample and --top. *)
type sim_opts = {
  sim_profile : [ `Table | `Json ] option;
  sample : int option;
  top : int option;
}

let sim_term =
  Term.(
    const (fun sim_profile sample top -> { sim_profile; sample; top })
    $ sim_profile_arg $ sample_arg $ top_arg)

let simulate o (image : Link.image) ~args =
  check_arity ~arity:image.Link.main_arity args;
  try
    Driver.run_image image
      ~profile:(o.sim_profile <> None)
      ?sample_period:(validate_period o.sample)
      ~args
  with Sim.Fault msg -> die "fault: %s" msg

(* The --sim-profile and --sim-profile-sample reports of one run. *)
let print_sim_profiles o image name (r : Sim.result) =
  let top = o.top in
  (match o.sim_profile with
  | None -> ()
  | Some fmt -> (
      let prof = Simprof.of_result image r in
      match fmt with
      | `Table -> Format.printf "%a" (Simprof.pp_flat ?top) prof
      | `Json -> print_endline (Simprof.to_json ?top prof)));
  match r.Sim.sample_profile with
  | None -> ()
  | Some sp ->
      let sprof = Sprof.of_run ~image ~workload:(Filename.basename name) r in
      Format.printf
        "[sampled: %Ld samples at period %.0f, overhead %.3f%%]@."
        sp.Sim.samples_taken sp.Sim.period
        (100.0 *. sp.Sim.sample_overhead_cycles
        /. Float.max 1.0 (r.Sim.cycles -. sp.Sim.sample_overhead_cycles));
      Format.printf "%a" (Sprof.pp ?top) sprof

let run_cmd =
  let variant_term =
    variant_term ~default:None
      ~doc:
        "Treat the input as MiniC source: compile it, build the \
         diversified variant for this configuration spec in memory, and \
         execute that instead of a prebuilt image."
  in
  let run binary args variant profile_path sim trace =
    with_trace trace (fun () ->
        let image =
          match variant with
          | None -> load_image binary
          | Some (config, version) ->
              let c =
                Driver.compile ~name:(Filename.basename binary)
                  (read_file binary)
              in
              let profile = load_profile profile_path in
              fst (Driver.diversify_linked c ~config ~profile ~version)
        in
        let r = simulate sim image ~args in
        print_string r.Sim.output;
        Format.printf "[status %ld, %Ld instructions, %.0f cycles]@."
          r.Sim.status r.Sim.instructions r.Sim.cycles;
        print_sim_profiles sim image binary r)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a binary image in the CPU simulator (or, with \
          $(b,--config), a freshly diversified build of a source file).")
    Term.(
      const run $ source_arg $ args_arg $ variant_term $ profile_arg $ sim_term
      $ trace_arg)

(* ---- the profile group: the exact training path (default command) and
   the sampled production path (record / merge / show / diff) ---- *)

let psdprof_output_arg = output_arg ~default:"a.psdprof"

let period_arg =
  Arg.(
    value
    & opt int Sim.default_sample_period
    & info [ "period" ] ~docv:"CYCLES"
        ~doc:
          (Printf.sprintf "Cycles between PC samples (default %d)."
             Sim.default_sample_period))

let load_sprof path =
  try Sprof.load path
  with Failure msg ->
    Format.eprintf "minicc: %s@." msg;
    exit 1

let profile_train_term =
  let run source output args build trace =
    with_trace trace (fun () ->
        let c = compile_source ~build source in
        check_arity ~arity:c.Driver.main_arity args;
        let profile =
          try Driver.train c ~args
          with Interp.Trap msg -> die "training run trapped: %s" msg
        in
        let oc = open_out output in
        output_string oc (Profile.to_string profile);
        close_out oc;
        Format.printf "%s: max block count %Ld@." output
          (Profile.max_count profile))
  in
  Term.(
    const run $ source_arg $ output_arg ~default:"a.prof" $ args_arg
    $ build_term $ trace_arg)

let profile_record_cmd =
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Workload name recorded in the provenance (default: the \
             binary's basename).")
  in
  let config_arg =
    Arg.(
      value & opt string ""
      & info [ "config" ] ~docv:"NAME"
          ~doc:"Diversification config recorded in the provenance.")
  in
  let seed_arg =
    Arg.(
      value & opt int64 0L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Diversification seed recorded in the provenance.")
  in
  let run binary output args period workload config seed trace =
    with_trace trace (fun () ->
        let image = load_image binary in
        let workload =
          Option.value workload ~default:(Filename.basename binary)
        in
        let period =
          Option.get (validate_period (Some period))
        in
        check_arity ~arity:image.Link.main_arity args;
        let sprof, r =
          try
            Driver.record_profile ~sample_period:period ~config ~seed image
              ~workload ~args
          with Sim.Fault msg -> die "fault: %s" msg
        in
        print_string r.Sim.output;
        Sprof.save sprof output;
        let sp = Option.get r.Sim.sample_profile in
        Format.printf
          "%s: %Ld samples at period %.0f (overhead %.3f%%), %d rows@."
          output sp.Sim.samples_taken sp.Sim.period
          (100.0 *. sp.Sim.sample_overhead_cycles
          /. Float.max 1.0 (r.Sim.cycles -. sp.Sim.sample_overhead_cycles))
          (Hashtbl.length sprof.Sprof.rows))
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a binary (diversified or not) with cycle-sampled profiling \
          and write the back-mapped recording as a $(b,.psdprof) file.")
    Term.(
      const run $ source_arg $ psdprof_output_arg $ args_arg $ period_arg
      $ workload_arg $ config_arg $ seed_arg $ trace_arg)

let profile_merge_cmd =
  let inputs_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"PSDPROF")
  in
  let weights_arg =
    Arg.(
      value & opt string ""
      & info [ "weights" ] ~docv:"FLOATS"
          ~doc:
            "Comma-separated per-input merge weights (default: 1 for \
             every input).")
  in
  let run inputs output weights =
    let weights =
      if String.trim weights = "" then List.map (fun _ -> 1.0) inputs
      else
        List.map
          (fun tok ->
            match float_of_string_opt (String.trim tok) with
            | Some w when w >= 0.0 -> w
            | _ -> die "bad --weights value: %s" tok)
          (String.split_on_char ',' weights)
    in
    if List.length weights <> List.length inputs then
      die "--weights count (%d) must match the number of inputs (%d)"
        (List.length weights) (List.length inputs);
    let merged =
      List.fold_left2
        (fun acc path w -> Sprof.merge acc (load_sprof path) ~weight:w)
        Sprof.empty inputs weights
    in
    Sprof.save merged output;
    Format.printf "%s: merged %d recording(s), %d rows@." output
      (List.length merged.Sprof.sources)
      (Hashtbl.length merged.Sprof.rows)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Merge sampled recordings (optionally weighted) into one \
          $(b,.psdprof), preserving every source's provenance.")
    Term.(const run $ inputs_arg $ psdprof_output_arg $ weights_arg)

let profile_show_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable output.")
  in
  let run path top json =
    let sprof = load_sprof path in
    if json then print_endline (Sprof.to_json ?top sprof)
    else Format.printf "%a" (Sprof.pp ?top) sprof
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print a sampled recording: provenance, then the mass table.")
    Term.(const run $ source_arg $ top_arg $ json_arg)

let profile_diff_cmd =
  let fresh_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FRESH")
  in
  let run path fresh_path =
    let sprof = load_sprof path in
    (* The reference side is either another sampled recording or an exact
       training profile (the text format `minicc profile` writes); the
       PSDPROF magic says which loader owns the file, so a corrupt
       recording gets the recording loader's error. *)
    let contents = read_file fresh_path in
    let fresh =
      if String.starts_with ~prefix:Sprof.magic contents then
        Sprof.to_profile (load_sprof fresh_path)
      else
        try Profile.of_string contents
        with Failure msg -> die "%s: %s" fresh_path msg
    in
    Format.printf "%a" Sprof.pp_staleness (Sprof.staleness ~fresh sprof)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Staleness of a sampled recording against a reference profile \
          (exact $(b,.prof) or sampled $(b,.psdprof)): block coverage, \
          weighted hot-set overlap, per-function drift.")
    Term.(const run $ source_arg $ fresh_arg)

let profile_train_cmd =
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Run the training input under the instrumented interpreter and \
          write the exact execution profile (also the default when \
          $(b,SOURCE) is given directly).")
    profile_train_term

let profile_subcommands = [ "train"; "record"; "merge"; "show"; "diff" ]

let profile_cmd =
  Cmd.group ~default:profile_train_term
    (Cmd.info "profile"
       ~doc:
         "Training profiles: run the training input and write the exact \
          execution profile (default), or $(b,record)/$(b,merge)/\
          $(b,show)/$(b,diff) sampled production profiles.")
    [ profile_train_cmd; profile_record_cmd; profile_merge_cmd;
      profile_show_cmd; profile_diff_cmd ]

let diversify_cmd =
  let variant_term =
    variant_term ~default:(Some "p0-30")
      ~doc:
        "Configuration: p50 p30 p25-50 p10-50 p0-30, uniform:P, \
         range:LO:HI, with optional +xchg +shift +sched +regperm +subst \
         +nonop +b<PCT> suffixes (the divpass portfolio and an overhead \
         budget of PCT percent)."
  in
  let sampled_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "sampled-profile" ] ~docv:"FILE"
          ~doc:
            "Sampled production recording (from $(b,profile record) / \
             $(b,profile merge)) to train from instead of an exact \
             $(b,--profile) — the closed PGO loop.")
  in
  let run source output profile_path sampled_path variant build stats trace =
    with_trace trace (fun () ->
        let config, version = Option.get variant in
        let c = compile_source ~build source in
        let profile =
          match (sampled_path, profile_path) with
          | Some sp, _ -> Driver.train_from_profile c (load_sprof sp)
          | None, p -> load_profile p
        in
        (match config.Config.strategy with
        | Config.Profiled _ when Profile.is_empty profile ->
            Format.eprintf
              "warning: profile-guided config without --profile; everything \
               is cold@."
        | _ -> ());
        let image, report =
          Driver.diversify_linked c ~config ~profile ~version
        in
        Link.save image output;
        List.iter
          (fun (s : Divpass.stats) ->
            Format.printf
              "%s: pass %-8s %d/%d items changed (%+d bytes)@." output
              s.Divpass.pass s.Divpass.changed s.Divpass.seen
              s.Divpass.bytes_added)
          report;
        print_pass_stats stats c)
  in
  Cmd.v
    (Cmd.info "diversify" ~doc:"Build one diversified version of a program.")
    Term.(
      const run $ source_arg $ output_arg ~default:"a.div.bin" $ profile_arg
      $ sampled_arg $ variant_term $ build_term $ pass_stats_arg $ trace_arg)

let gadgets_cmd =
  let run binary =
    let image = Link.load binary in
    let gadgets = Finder.scan image.Link.text in
    Format.printf "%d gadgets in %d bytes of .text@." (List.length gadgets)
      (String.length image.Link.text);
    let in_libc =
      List.length
        (List.filter
           (fun (g : Finder.t) -> g.offset < image.Link.user_start)
           gadgets)
    in
    Format.printf "  %d in the fixed runtime, %d in user code@." in_libc
      (List.length gadgets - in_libc)
  in
  Cmd.v
    (Cmd.info "gadgets" ~doc:"Count ROP gadgets in a binary image.")
    Term.(const run $ source_arg)

let survivor_cmd =
  let div_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DIVERSIFIED")
  in
  let run original diversified =
    let o = Link.load original in
    let d = Link.load diversified in
    let outcome =
      Survivor.compare_sections ~original:o.Link.text
        ~diversified:d.Link.text ()
    in
    Format.printf "baseline gadgets: %d@." outcome.Survivor.baseline_gadgets;
    Format.printf "surviving:        %d (%.2f%%)@." outcome.Survivor.surviving
      (100.0
      *. float_of_int outcome.Survivor.surviving
      /. float_of_int (max 1 outcome.Survivor.baseline_gadgets))
  in
  Cmd.v
    (Cmd.info "survivor"
       ~doc:"Count gadgets surviving diversification (paper 5.2).")
    Term.(const run $ source_arg $ div_arg)

let attack_cmd =
  let scanner_arg =
    Arg.(
      value
      & opt (enum [ ("ropgadget", Attack.Ropgadget); ("micro", Attack.Microgadgets) ])
          Attack.Ropgadget
      & info [ "scanner" ] ~docv:"NAME" ~doc:"ropgadget or micro.")
  in
  let run binary scanner =
    let image = Link.load binary in
    let v = Attack.attack scanner image.Link.text in
    Format.printf "scanner: %s@." (Attack.scanner_name v.Attack.scanner);
    List.iter
      (fun (c, n) ->
        Format.printf "  %-14s %d gadgets@." (Attack.show_gadget_class c) n)
      (List.sort compare v.Attack.classes_found);
    if v.Attack.feasible then Format.printf "attack FEASIBLE@."
    else begin
      Format.printf "attack infeasible; missing:";
      List.iter
        (fun c -> Format.printf " %s" (Attack.show_gadget_class c))
        v.Attack.missing;
      Format.printf "@."
    end
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Judge ROP-attack feasibility against a binary.")
    Term.(const run $ source_arg $ scanner_arg)

let disas_cmd =
  let run binary =
    let image = Link.load binary in
    List.iter
      (fun (name, off) -> Format.printf "%8x  <%s>@." off name)
      (List.sort (fun (_, a) (_, b) -> compare a b) image.Link.symbols);
    Format.printf "@.";
    Decode.pp_listing Format.std_formatter image.Link.text
  in
  Cmd.v
    (Cmd.info "disas" ~doc:"Disassemble a binary image.")
    Term.(const run $ source_arg)

let workload_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let ref_arg =
    Arg.(value & flag & info [ "ref" ] ~doc:"Use the ref input (default: train).")
  in
  let variant_term =
    variant_term ~default:None
      ~doc:
        "Run a diversified variant instead of the baseline: train on the \
         workload's training input, then diversify under this \
         configuration spec."
  in
  let run name use_ref variant sim trace =
    with_trace trace (fun () ->
        let w = Workloads.find name in
        let c = Driver.compile ~name:w.Workload.name w.source in
        let args = if use_ref then w.ref_args else w.train_args in
        let image =
          match variant with
          | None -> Driver.link_baseline c
          | Some (config, version) ->
              let profile = Driver.train c ~args:w.train_args in
              fst (Driver.diversify_linked c ~config ~profile ~version)
        in
        let r = simulate sim image ~args in
        print_string r.Sim.output;
        Format.printf "[%s %s: status %ld, %Ld instructions]@." w.name
          (if use_ref then "ref" else "train")
          r.Sim.status r.Sim.instructions;
        print_sim_profiles sim image w.name r)
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Run a benchmark-suite program by name (optionally as a \
          diversified variant).")
    Term.(
      const run $ name_arg $ ref_arg $ variant_term $ sim_term $ trace_arg)

let jobs_conv =
  Arg.conv
    ( (fun s ->
        match Pool.jobs_of_string s with
        | Ok j -> Ok j
        | Error msg -> Error (`Msg msg)),
      fun ppf j -> Format.pp_print_string ppf (Pool.jobs_to_string j) )

let fuzz_cmd =
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let seed_arg =
    Arg.(
      value & opt int64 1L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed. The whole campaign — programs, verdicts, \
             reproducers — is a pure function of it.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Minimize each divergence by delta-debugging the generator's \
             decision trace before reporting it.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write $(b,<name>.repro.mc) reproducer files to $(docv).")
  in
  let versions_arg =
    Arg.(
      value & opt int 3
      & info [ "versions" ] ~docv:"N"
          ~doc:"Diversified versions per configuration (default 3).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt jobs_conv (Pool.Jobs 1)
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker processes for the campaign ($(docv) or $(b,auto)); the \
             campaign is byte-identical at every setting.")
  in
  let run count seed shrink out_dir versions jobs trace =
    with_trace trace (fun () ->
        let log line = Format.eprintf "fuzz: %s@." line in
        let campaign =
          Fuzz.run ~versions ~shrink ?out_dir ~log ~jobs ~seed ~count ()
        in
        Format.printf
          "fuzz: %d programs, %d executions, %d skips (documented \
           asymmetries), %d divergences@."
          campaign.Fuzz.checked campaign.Fuzz.runs campaign.Fuzz.skips
          (List.length campaign.Fuzz.findings);
        List.iter
          (fun (f : Fuzz.finding) ->
            match f.Fuzz.report.Oracle.divergence with
            | Some d ->
                Format.printf "DIVERGENCE %s: %s vs %s — %s@."
                  f.Fuzz.report.Oracle.program.Gen.name d.Oracle.left
                  d.Oracle.right d.Oracle.detail
            | None -> ())
          campaign.Fuzz.findings;
        List.iter
          (fun (index, msg) ->
            Format.printf "ERROR program %d: %s@." index msg)
          campaign.Fuzz.errors;
        if campaign.Fuzz.findings <> [] || campaign.Fuzz.errors <> [] then
          exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the toolchain: random MiniC programs checked \
          across interpreter, simulator and diversified variants.")
    Term.(
      const run $ count_arg $ seed_arg $ shrink_arg $ out_arg $ versions_arg
      $ jobs_arg $ trace_arg)

(* ---- the variant-serving daemon and its load generator ---- *)

let socket_arg =
  Arg.(
    value
    & opt string "psd-serve.sock"
    & info [ "s"; "socket" ] ~docv:"ADDR"
        ~doc:
          "Socket address: a Unix-domain socket path (default \
           $(b,psd-serve.sock)) or $(b,tcp:HOST:PORT).")

let parse_addr spec =
  match Sdaemon.addr_of_spec spec with Ok a -> a | Error e -> die "%s" e

let serve_cmd =
  let jobs_arg =
    Arg.(
      value
      & opt jobs_conv (Pool.Jobs 1)
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker processes for the per-batch variant fan-out ($(docv) \
             or $(b,auto)); returned digests are byte-identical at every \
             setting.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Bounded-queue capacity: requests arriving beyond $(docv) \
             pending are shed immediately with a Shed reply.")
  in
  let batch_arg =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"N"
          ~doc:"Max requests prepared and fanned out per pool run.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Shed any request that waited longer than $(docv) in the \
             queue ($(b,0) disables).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-event log lines.")
  in
  let run socket jobs queue_cap batch timeout quiet trace =
    with_trace trace (fun () ->
        let addr = parse_addr socket in
        let cfg =
          {
            (Sdaemon.default_cfg addr) with
            Sdaemon.jobs;
            queue_cap;
            batch;
            timeout_s = timeout;
            log =
              (if quiet then ignore
               else fun line -> Format.eprintf "serve: %s@." line);
          }
        in
        try Sdaemon.run cfg
        with Unix.Unix_error (e, fn, arg) ->
          die "cannot serve on %s: %s (%s %s)" socket (Unix.error_message e)
            fn arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the variant-serving daemon: a long-lived process that keeps \
          the function store and training profiles warm and answers \
          (workload, config, seed-range) requests with freshly-seeded \
          diversified images.")
    Term.(
      const run $ socket_arg $ jobs_arg $ queue_cap_arg $ batch_arg
      $ timeout_arg $ quiet_arg $ trace_arg)

let serve_client_cmd =
  let requests_arg =
    Arg.(
      value & opt int 10
      & info [ "requests" ] ~docv:"N" ~doc:"Trace length (default 10).")
  in
  let versions_arg =
    Arg.(
      value & opt int 5
      & info [ "versions-per-request" ] ~docv:"N"
          ~doc:"Width of each request's version window (default 5).")
  in
  let space_arg =
    Arg.(
      value & opt int 100
      & info [ "version-space" ] ~docv:"N"
          ~doc:
            "Version windows are drawn from $(b,0..N-1); smaller spaces \
             revisit versions more, exercising the warm path (default \
             100).")
  in
  let workloads_arg =
    Arg.(
      value
      & opt string "473.astar,401.bzip2"
      & info [ "workloads" ] ~docv:"NAMES"
          ~doc:"Comma-separated workload names the trace draws from.")
  in
  let config_arg =
    Arg.(
      value & opt string "p0-30"
      & info [ "config" ] ~docv:"SPEC"
          ~doc:"Configuration spec sent with every request.")
  in
  let seed_arg =
    Arg.(
      value & opt int64 1L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Trace seed: the whole request trace is a function of it.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Check every returned digest against a serial in-process \
             oracle build, and decode + re-hash any returned image.")
  in
  let images_arg =
    Arg.(
      value & flag
      & info [ "images" ] ~doc:"Request full images, not just digests.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"DIR"
          ~doc:
            "With $(b,--images), write each returned image to \
             $(docv)/<workload>.v<version>.bin — files $(b,minicc run) \
             executes directly.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print daemon statistics after the replay.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to exit when done.")
  in
  let run socket requests versions_per_request version_space workloads config
      seed verify images dump stats shutdown trace =
    with_trace trace (fun () ->
        (* Validate the spec locally (same message and exit code as
           run/workload/diversify) before touching the daemon. *)
        let (_ : Config.t) = parse_config config in
        let addr = parse_addr socket in
        let fd =
          try Sclient.connect ~retry_for:10.0 addr
          with Unix.Unix_error (e, _, _) ->
            die "cannot connect to %s: %s" socket (Unix.error_message e)
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let trace_reqs =
              if requests = 0 then []
              else
                Sclient.trace ~seed
                  ~workloads:
                    (List.filter
                       (fun s -> s <> "")
                       (List.map String.trim
                          (String.split_on_char ',' workloads)))
                  ~config ~requests ~versions_per_request ~version_space
                  ~want_images:(images || dump <> None)
            in
            (match dump with
            | Some dir when not (Sys.file_exists dir) ->
                Unix.mkdir dir 0o755
            | _ -> ());
            let on_built (b : Sproto.built) =
              match dump with
              | None -> ()
              | Some dir ->
                  List.iter
                    (fun (v : Sproto.variant) ->
                      match v.Sproto.image with
                      | None -> ()
                      | Some bytes ->
                          let path =
                            Filename.concat dir
                              (Printf.sprintf "%s.v%d.bin" b.Sproto.workload
                                 v.Sproto.version)
                          in
                          let oc = open_out_bin path in
                          output_string oc bytes;
                          close_out oc)
                    b.Sproto.variants
            in
            let report =
              try Sclient.replay ~verify ~on_built fd trace_reqs
              with Failure msg -> die "%s" msg
            in
            Format.printf
              "replayed %d request(s): %d built (%d variants), %d shed, %d \
               errors in %.2fs@."
              report.Sclient.requests report.Sclient.built
              report.Sclient.variants report.Sclient.shed
              report.Sclient.errors report.Sclient.wall_s;
            Format.printf
              "  lowering runs %d, store hits %d, store misses %d@."
              report.Sclient.lowering_runs report.Sclient.store_hits
              report.Sclient.store_misses;
            if verify then
              if report.Sclient.digest_mismatches = 0 then
                Format.printf "  digests match the serial oracle@."
              else begin
                Format.printf "  %d DIGEST MISMATCH(ES) vs the oracle@."
                  report.Sclient.digest_mismatches;
                exit 1
              end;
            if stats then begin
              let s = try Sclient.stats fd with Failure msg -> die "%s" msg in
              Format.printf
                "daemon: %Ld requests, %Ld variants built, %Ld shed, %Ld \
                 errors@."
                s.Sproto.requests s.Sproto.built_variants s.Sproto.shed
                s.Sproto.errors;
              Format.printf "  store: %d entries@." s.Sproto.store_entries
            end;
            if shutdown then
              try Sclient.shutdown fd with Failure msg -> die "%s" msg))
  in
  Cmd.v
    (Cmd.info "serve-client"
       ~doc:
         "Replay a seeded request trace against a running $(b,minicc \
          serve) daemon, optionally verifying every returned digest \
          against a serial in-process oracle.")
    Term.(
      const run $ socket_arg $ requests_arg $ versions_arg $ space_arg
      $ workloads_arg $ config_arg $ seed_arg $ verify_arg $ images_arg
      $ dump_arg $ stats_arg $ shutdown_arg $ trace_arg)

let () =
  let doc = "profile-guided software diversity compiler (CGO'13 reproduction)" in
  let info = Cmd.info "minicc" ~version:"1.0" ~doc in
  (* Back-compat: `minicc profile prog.mc ...` predates the subcommand
     group; rewrite it to `profile train prog.mc ...` so the group
     doesn't mistake the source file for a subcommand name. *)
  let argv =
    let argv = Sys.argv in
    if
      Array.length argv >= 3
      && String.equal argv.(1) "profile"
      && String.length argv.(2) > 0
      && argv.(2).[0] <> '-'
      && not (List.mem argv.(2) profile_subcommands)
    then
      Array.concat
        [
          [| argv.(0); "profile"; "train" |];
          Array.sub argv 2 (Array.length argv - 2);
        ]
    else argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [
            compile_cmd; link_cmd; run_cmd; profile_cmd; diversify_cmd;
            gadgets_cmd; survivor_cmd; attack_cmd; disas_cmd; workload_cmd;
            fuzz_cmd; serve_cmd; serve_client_cmd;
          ]))
