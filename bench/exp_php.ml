(* §5.2 concrete-attack study.  The paper takes a network-facing
   interpreter (PHP 5.3.16), verifies that two gadget scanners (ROPgadget,
   microgadgets) can assemble an attack against the undiversified binary,
   then shows that on 25 diversified versions (pNOP = 0-30%, one
   population per training profile) the surviving gadgets no longer
   provide the required operations.

   Our interpreter is the phpvm workload; the seven profiles are the
   Benchmarks-Game analogues. *)

let scanners = [ Attack.Ropgadget; Attack.Microgadgets ]

let pp_verdict prefix (v : Attack.verdict) =
  Format.printf "  %s%-14s feasible=%-5b gadget classes:" prefix
    (Attack.scanner_name v.scanner)
    v.feasible;
  List.iter
    (fun (c, n) ->
      Format.printf " %s=%d" (Attack.show_gadget_class c) n)
    (List.sort compare v.classes_found);
  if v.missing <> [] then begin
    Format.printf "  missing:";
    List.iter
      (fun c -> Format.printf " %s" (Attack.show_gadget_class c))
      v.missing
  end;
  Format.printf "@."

let run () =
  Format.printf "@.Concrete ROP attack against the interpreter (paper 5.2)@.";
  Suite.hr Format.std_formatter;
  let w = Workloads.phpvm in
  let compiled = Driver.compile ~name:w.Workload.name w.source in
  let baseline = Driver.link_baseline compiled in
  (* Step 1: the undiversified binary must be attackable by both
     scanners. *)
  Format.printf "undiversified %s (%d bytes of .text):@." w.name
    (String.length baseline.Link.text);
  List.iter
    (fun s -> pp_verdict "" (Attack.attack s baseline.Link.text))
    scanners;
  (* Step 2: for each training profile, build 25 diversified versions at
     the weakest setting (p0-30) and re-run both scanners on the gadgets
     that survived diversification. *)
  let config = Config.profiled ~pmin:0.0 ~pmax:0.30 () in
  (* Each scanner's view of the baseline, scanned once for every
     profile and version. *)
  let scanned =
    List.map (fun s -> (s, Attack.scan s baseline.Link.text)) scanners
  in
  let attackable = ref 0 in
  List.iter
    (fun (prof : Phpvm.profile_program) ->
      let profile =
        Driver.train compiled ~args:[ prof.prog_id; prof.train_n ]
      in
      let feasible_count =
        Driver.population compiled ~config ~profile
          ~n:Suite.security_population ~init:0 (fun count (img : Link.image) ->
            let surviving = Hashtbl.create 256 in
            List.iter
              (fun (g : Finder.t) -> Hashtbl.replace surviving g.offset ())
              (Survivor.surviving_gadgets ~original:baseline.Link.text
                 ~diversified:img.Link.text ());
            (* Restrict each scanner to gadgets still present at their
               original offsets, then ask for attack feasibility. *)
            let feasible (scanner, gadgets) =
              (Attack.attack_on_gadgets scanner
                 (List.filter
                    (fun (g : Finder.t) -> Hashtbl.mem surviving g.offset)
                    gadgets))
                .Attack.feasible
            in
            count + List.length (List.filter feasible scanned))
      in
      if feasible_count > 0 then incr attackable;
      Format.printf
        "profile %-14s %2d/%d versions attackable (surviving-gadget sets)@."
        prof.prog_name feasible_count
        (Suite.security_population * List.length scanners))
    Workloads.php_profiles;
  Format.printf
    "@.=> %d/%d profiles produced any attackable diversified binary@."
    !attackable 7
