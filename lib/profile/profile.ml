type t = { counts : (string * Ir.label, int64) Hashtbl.t }

let empty = { counts = Hashtbl.create 1 }
let of_block_counts counts = { counts = Hashtbl.copy counts }

(* The interpreter builds a fresh table per run; the profile takes it
   over instead of copying it. *)
let collect ?fuel m ~entry ~args =
  { counts = (Interp.run ?fuel m ~entry ~args).Interp.counts.blocks }

let fold f t acc = Hashtbl.fold (fun k v acc -> f k v acc) t.counts acc

let block_count t ~func label =
  Option.value (Hashtbl.find_opt t.counts (func, label)) ~default:0L

let max_count t = Hashtbl.fold (fun _ v acc -> max v acc) t.counts 0L

let max_count_func t fname =
  Hashtbl.fold
    (fun (f, _) v acc -> if String.equal f fname then max v acc else acc)
    t.counts 0L

let is_empty t = Hashtbl.length t.counts = 0

let to_string t =
  let entries =
    Hashtbl.fold (fun (f, l) v acc -> (f, l, v) :: acc) t.counts []
  in
  let sorted = List.sort compare entries in
  String.concat ""
    (List.map (fun (f, l, v) -> Printf.sprintf "%s %d %Ld\n" f l v) sorted)

let of_string s =
  let counts = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            failwith (Printf.sprintf "Profile.of_string: line %d: %s" (i + 1) msg))
          fmt
      in
      let line = String.trim line in
      if line <> "" then
        match String.split_on_char ' ' line with
        | [ f; l; v ] -> (
            match (int_of_string_opt l, Int64.of_string_opt v) with
            | Some l, Some v ->
                if Int64.compare v 0L < 0 then fail "negative count %Ld" v;
                if Hashtbl.mem counts (f, l) then
                  fail "duplicate entry for %s %d" f l;
                Hashtbl.replace counts (f, l) v
            | _ -> fail "bad line: %s" line)
        | _ -> fail "bad line: %s" line)
    (String.split_on_char '\n' s);
  { counts }

let median_nonzero t =
  let xs =
    Hashtbl.fold
      (fun _ v acc -> if v > 0L then Int64.to_float v :: acc else acc)
      t.counts []
  in
  Stats.median xs
