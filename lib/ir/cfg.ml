module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

type t = {
  entry : Ir.label;
  order : Ir.label list;
  succs : Ir.label list IMap.t;
  preds : Ir.label list IMap.t;
  reach : ISet.t;
}

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let of_func (f : Ir.func) =
  let entry =
    match f.blocks with
    | [] -> invalid_arg "Cfg.of_func: function has no blocks"
    | b :: _ -> b.Ir.label
  in
  let order = List.map (fun b -> b.Ir.label) f.blocks in
  let succs =
    List.fold_left
      (fun m b -> IMap.add b.Ir.label (dedup (Ir.successors b.Ir.term)) m)
      IMap.empty f.blocks
  in
  let preds =
    List.fold_left
      (fun m b ->
        List.fold_left
          (fun m s ->
            let old = Option.value (IMap.find_opt s m) ~default:[] in
            IMap.add s (old @ [ b.Ir.label ]) m)
          m
          (Option.value (IMap.find_opt b.Ir.label succs) ~default:[]))
      IMap.empty f.blocks
  in
  (* DFS from the entry. *)
  let visited = ref ISet.empty in
  let rec dfs l =
    if not (ISet.mem l !visited) then begin
      visited := ISet.add l !visited;
      List.iter dfs (Option.value (IMap.find_opt l succs) ~default:[])
    end
  in
  dfs entry;
  { entry; order; succs; preds; reach = !visited }

let entry t = t.entry
let succs t l = Option.value (IMap.find_opt l t.succs) ~default:[]
let preds t l = Option.value (IMap.find_opt l t.preds) ~default:[]

let edges t =
  List.concat_map (fun l -> List.map (fun s -> (l, s)) (succs t l)) t.order

let reachable t l = ISet.mem l t.reach
