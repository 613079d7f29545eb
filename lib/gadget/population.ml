type report = { population : int; at_least : (int * int) list }

(* The per-version half: which (offset, normalized bytes) pairs does this
   version contain?  The normalized sequence is keyed by its rendering,
   which is injective enough for machine instructions and avoids a
   polymorphic-compare hash of the AST.  A section has at most one
   gadget per start offset, so the pairs are distinct, and the scan
   meets them in offset order.  Gadgets share their tails, so each
   instruction offset is rendered (or found to be a NOP candidate, "")
   once per section.  Pure data out, so the pool can run one version
   per task. *)
let section_keys text =
  let d = Finder.decoder text in
  let rendered = Array.make (String.length text) None in
  let render pos i =
    match rendered.(pos) with
    | Some s -> s
    | None ->
        let s = if Nops.is_candidate i then "" else Insn.to_string i in
        rendered.(pos) <- Some s;
        s
  in
  let keys = ref [] in
  Finder.iter d (fun start insns ->
      let rec parts pos acc = function
        | [] -> List.rev acc
        | i :: rest ->
            let s = render pos i and _, len = Option.get (Finder.decode d pos) in
            parts (pos + len) (if s = "" then acc else s :: acc) rest
      in
      match parts start [] insns with
      | [] -> ()
      | normalized -> keys := (start, String.concat ";" normalized) :: !keys);
  List.rev !keys

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

let analyze ~thresholds sections =
  of_keys ~thresholds (List.map section_keys sections)
