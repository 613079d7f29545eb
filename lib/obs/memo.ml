(* A memo table, optionally bounded: every process-wide cache in the
   toolchain is one of these.  Recency is a tick bumped on each lookup
   and insert; a miss at capacity evicts the entry with the oldest tick.
   Ticks are unique, so the victim never depends on hash order. *)

type 'v entry = { value : 'v; mutable last_use : int }

type ('k, 'v) t = {
  lock : Lock.t;
  tbl : ('k, 'v entry) Hashtbl.t;
  mutable capacity : int option;
  mutable tick : int;
  metric : string option;
}

let check_capacity n = if n < 1 then invalid_arg "Memo: capacity < 1"

let create ?capacity ?metric () =
  Option.iter check_capacity capacity;
  { lock = Lock.create (); tbl = Hashtbl.create 16; capacity; tick = 0; metric }

let count t what =
  match t.metric with
  | Some p -> Metrics.incr (Metrics.counter (p ^ what))
  | None -> ()

(* Caller holds the lock. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best <= e.last_use -> acc
        | _ -> Some (k, e.last_use))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      count t ".evict"
  | None -> ()

let find t k =
  Lock.protect t.lock (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.tbl k with
      | Some e ->
          e.last_use <- t.tick;
          count t ".hit";
          Some e.value
      | None ->
          count t ".miss";
          None)

(* The first value stored under a key wins, should two computations of
   it race. *)
let add t k v =
  Lock.protect t.lock (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.tbl k with
      | Some e -> e.value
      | None ->
          (match t.capacity with
          | Some n when Hashtbl.length t.tbl >= n -> evict_lru t
          | _ -> ());
          Hashtbl.replace t.tbl k { value = v; last_use = t.tick };
          v)

let find_or_add t k f =
  match find t k with Some v -> v | None -> add t k (f ())

let length t = Lock.protect t.lock (fun () -> Hashtbl.length t.tbl)

let set_capacity t n =
  check_capacity n;
  Lock.protect t.lock (fun () ->
      t.capacity <- Some n;
      while Hashtbl.length t.tbl > n do
        evict_lru t
      done)

let clear t =
  Lock.protect t.lock (fun () ->
      Hashtbl.reset t.tbl;
      t.tick <- 0)
