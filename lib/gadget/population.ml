let thresholds n =
  let frac pct = max 2 (n * pct / 100) in
  List.sort_uniq compare ([ 2; 5; 12 ] @ [ frac 8; frac 20; frac 48 ])

type report = { population : int; at_least : (int * int) list }

type key = int * Insn.t list

(* The per-version half: which (offset, normalized sequence) pairs does
   this version contain?  A gadget's sequence is normalized by dropping
   the NOP candidates (Table 1) and folding each remaining instruction
   to its canonical form, so two sequences are one key exactly when
   their [Insn.to_string] renderings agree.  [Finder.iter] meets the
   starts last first, and a gadget's list is its first instruction on
   the list of the gadget one instruction on, met before it.  So the
   normalized sequence is built the same way, on the one built for that
   gadget ([built] keeps the last [Finder.window]), and the sequences
   share their tails as the lists do.  A section has at most one gadget
   per start offset, so the pairs are distinct, and prepending leaves
   them in offset order.  Pure data out, so the pool can run one
   version per task. *)
let section_keys text =
  let slot pos = pos land (Finder.window - 1) in
  let built = Array.make Finder.window [] and keys = ref [] in
  Finder.iter text (fun start insns ->
      match insns with
      | [] -> ()
      | i :: rest -> (
          let tail =
            match rest with
            | [] -> []
            | _ -> built.(slot (start + Decode.length_of (Decode.classify text start)))
          in
          let normalized =
            if Nops.is_candidate i then tail else Insn.canonical i :: tail
          in
          built.(slot start) <- normalized;
          match normalized with
          | [] -> ()
          | _ -> keys := (start, normalized) :: !keys));
  !keys

(* A key hashes by its offset and its length, and no instruction is
   hashed.  The keys that share both are few: in 400.perlbench's p50
   census at n = 10,000 (15,348 keys), the keys with a key's offset and
   length number 3.7 on average over the keys, it included, and 13 at
   most, and [Insn.equal] tells most apart at the first instruction. *)
module Table = Hashtbl.Make (struct
  type t = key

  let equal ((a, x) : t) (b, y) = a = b && List.equal Insn.equal x y

  let hash ((offset, insns) : t) = (offset * 31) + List.length insns
end)

(* The distinct sequences of a census.  They are few (147 in that
   census), and each recurs at many offsets, so the stored keys share
   them: 9.9 words a key in that census, where unshared instruction
   lists took 30.5. *)
module Seqs = Hashtbl.Make (struct
  type t = Insn.t list

  let equal = List.equal Insn.equal
  let hash = Hashtbl.hash
end)

(* The merge half: how many versions contain each pair?  One version's
   keys are added at a time, so a census holds the table and never the
   population.  A new key is stored with the census's copy of its
   sequence. *)
type counts = {
  table : int ref Table.t;
  seqs : Insn.t list Seqs.t;
  mutable versions : int;
}

let create () = { table = Table.create 1024; seqs = Seqs.create 1024; versions = 0 }

let add t keys =
  List.iter
    (fun ((offset, insns) as key) ->
      match Table.find_opt t.table key with
      | Some c -> incr c
      | None ->
          let insns =
            match Seqs.find_opt t.seqs insns with
            | Some shared -> shared
            | None ->
                Seqs.add t.seqs insns insns;
                insns
          in
          Table.add t.table (offset, insns) (ref 1))
    keys;
  t.versions <- t.versions + 1

let report ~thresholds t =
  let at_least k =
    (k, Table.fold (fun _ c n -> if !c >= k then n + 1 else n) t.table 0)
  in
  { population = t.versions; at_least = List.map at_least thresholds }

let of_keys ~thresholds keyed_sections =
  let t = create () in
  List.iter (add t) keyed_sections;
  report ~thresholds t
