let thresholds n =
  let frac pct = max 2 (n * pct / 100) in
  List.sort_uniq compare ([ 2; 5; 12 ] @ [ frac 8; frac 20; frac 48 ])

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

(* The merge half: how many versions contain each pair?  One version's
   keys are added at a time, so a census holds the table and never the
   population. *)
type counts = {
  table : (int * string, int) Hashtbl.t;
  mutable versions : int;
}

let create () = { table = Hashtbl.create 1024; versions = 0 }

let add t keys =
  List.iter
    (fun key ->
      let old = Option.value (Hashtbl.find_opt t.table key) ~default:0 in
      Hashtbl.replace t.table key (old + 1))
    keys;
  t.versions <- t.versions + 1

let report ~thresholds t =
  let at_least k =
    (k, Hashtbl.fold (fun _ c n -> if c >= k then n + 1 else n) t.table 0)
  in
  { population = t.versions; at_least = List.map at_least thresholds }

let of_keys ~thresholds keyed_sections =
  let t = create () in
  List.iter (add t) keyed_sections;
  report ~thresholds t
