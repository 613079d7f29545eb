type report = { population : int; at_least : (int * int) list }

(* The per-version half: which (offset, normalized bytes) pairs does this
   version contain?  The normalized sequence is keyed by its rendering,
   which is injective enough for machine instructions and avoids a
   polymorphic-compare hash of the AST.  Within one version, each pair
   counts once.  Pure data out, so the pool can run one version per
   task. *)
let section_keys text =
  let gadgets = Finder.scan text in
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (g : Finder.t) ->
      let normalized = Survivor.normalize g.insns in
      if normalized <> [] then begin
        let key =
          (g.offset, String.concat ";" (List.map Insn.to_string normalized))
        in
        if not (Hashtbl.mem seen key) then Hashtbl.replace seen key ()
      end)
    gadgets;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

(* The merge half: how many versions contain each pair? *)
let of_keys ~thresholds keyed_sections =
  let counts : (int * string, int) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun keys ->
      List.iter
        (fun key ->
          let old = Option.value (Hashtbl.find_opt counts key) ~default:0 in
          Hashtbl.replace counts key (old + 1))
        keys)
    keyed_sections;
  let at_least =
    List.map
      (fun k ->
        let n =
          Hashtbl.fold (fun _ c acc -> if c >= k then acc + 1 else acc) counts 0
        in
        (k, n))
      thresholds
  in
  { population = List.length keyed_sections; at_least }

let analyze ?(jobs = Pool.Jobs 1) ~thresholds sections =
  let keyed =
    List.map
      (function
        | Pool.Done keys -> keys
        | o -> failwith ("Population.analyze: " ^ Pool.outcome_to_string o))
      (Pool.map ~jobs section_keys sections)
  in
  of_keys ~thresholds keyed
